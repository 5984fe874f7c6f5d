"""Small reverse-mode autodiff over numpy float64 arrays.

Just enough surface for dense nets and a tanh-Gaussian policy: elementwise
arithmetic with broadcasting, matmul, a few nonlinearities, reductions,
concat and basic indexing. Gradients accumulate into ``Tensor.grad`` when
``backward()`` is called on a scalar. A dense ReLU stack
(``nets.DenseNet.forward``) records one node for all its layers, built with
``Tensor._result``, instead of a matmul, a bias add and a ReLU per layer.
"""

from __future__ import annotations

import numpy as np


def _as_array(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient back down to the shape it was broadcast from."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    # construction helper for op results
    @classmethod
    def _result(cls, data, parents, backward):
        out = cls(data)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy())

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            # one pass, same bits as zeros + g (a -0.0 entry becomes +0.0)
            self.grad = np.add(g, 0.0, out=np.empty_like(self.data))
        else:
            self.grad += g

    def backward(self) -> None:
        if self.data.size != 1:
            raise ValueError("backward() needs a scalar loss")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen or not node.requires_grad:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                stack.append((p, False))
        self._accumulate(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)

    # ---- elementwise arithmetic -------------------------------------
    def __add__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g, other.shape))

        return Tensor._result(self.data + other.data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self):
        def backward(g):
            if self.requires_grad:
                self._accumulate(-g)

        return Tensor._result(-self.data, (self,), backward)

    def __sub__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
        return self + (-other)

    def __rsub__(self, other):
        return Tensor(other) + (-self)

    def __mul__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g * self.data, other.shape))

        return Tensor._result(self.data * other.data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-g * self.data / other.data**2, other.shape)
                )

        return Tensor._result(self.data / other.data, (self, other), backward)

    def __rtruediv__(self, other):
        return Tensor(other) / self

    def __matmul__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)

        def backward(g):
            if self.requires_grad:
                self._accumulate(g @ other.data.T)
            if other.requires_grad:
                other._accumulate(self.data.T @ g)

        return Tensor._result(self.data @ other.data, (self, other), backward)

    def __getitem__(self, key):
        def backward(g):
            if self.requires_grad:
                scatter = np.zeros_like(self.data)
                np.add.at(scatter, key, g)
                self._accumulate(scatter)

        return Tensor._result(self.data[key], (self,), backward)

    # ---- nonlinearities ---------------------------------------------
    def tanh(self):
        y = np.tanh(self.data)

        def backward(g):
            if self.requires_grad:
                self._accumulate(g * (1.0 - y * y))

        return Tensor._result(y, (self,), backward)

    def exp(self):
        y = np.exp(self.data)

        def backward(g):
            if self.requires_grad:
                self._accumulate(g * y)

        return Tensor._result(y, (self,), backward)

    def log(self):
        def backward(g):
            if self.requires_grad:
                self._accumulate(g / self.data)

        return Tensor._result(np.log(self.data), (self,), backward)

    def square(self):
        def backward(g):
            if self.requires_grad:
                self._accumulate(g * 2.0 * self.data)

        return Tensor._result(self.data**2, (self,), backward)

    def softplus(self):
        # log(1 + e^x) without overflow for large |x|
        y = np.maximum(self.data, 0.0) + np.log1p(np.exp(-np.abs(self.data)))

        def backward(g):
            if self.requires_grad:
                e = np.exp(-np.abs(self.data))
                s = np.where(self.data >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
                self._accumulate(g * s)

        return Tensor._result(y, (self,), backward)

    def clip(self, lo: float, hi: float):
        inside = (self.data >= lo) & (self.data <= hi)

        def backward(g):
            if self.requires_grad:
                self._accumulate(g * inside)

        return Tensor._result(np.clip(self.data, lo, hi), (self,), backward)

    # ---- reductions --------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False):
        def backward(g):
            if not self.requires_grad:
                return
            if axis is None:
                self._accumulate(np.broadcast_to(g, self.shape).copy())
                return
            if not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.shape).copy())

        return Tensor._result(
            self.data.sum(axis=axis, keepdims=keepdims), (self,), backward
        )

    def mean(self, axis=None, keepdims: bool = False):
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def tensor(data, requires_grad: bool = False) -> Tensor:
    return Tensor(data, requires_grad=requires_grad)


def concat(parts: list[Tensor], axis: int = -1) -> Tensor:
    datas = [p.data for p in parts]
    sizes = [d.shape[axis] for d in datas]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        for part, piece in zip(parts, np.split(g, splits, axis=axis)):
            if part.requires_grad:
                part._accumulate(piece)

    return Tensor._result(np.concatenate(datas, axis=axis), tuple(parts), backward)


def minimum(a: Tensor, b: Tensor) -> Tensor:
    take_a = a.data <= b.data  # ties route to the first argument

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * take_a, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * ~take_a, b.shape))

    return Tensor._result(np.where(take_a, a.data, b.data), (a, b), backward)
