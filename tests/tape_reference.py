"""Op-by-op dense stack, kept as a reference for `voltfleet.sac.nets.DenseNet`.

This is `DenseNet.forward` as the tape recorded it op by op: per layer a
matmul node, a bias-add node and (except on the last layer) a ReLU node,
each passing its gradient on through `Tensor._accumulate`. The package
records the whole stack as one node; the tests in `test_tape.py` run both
on the same nets and inputs and require equal bits. It shares only
`Tensor` with the package.
"""

from __future__ import annotations

import numpy as np

from voltfleet.sac.tensor import Tensor


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0

    def backward(g):
        if x.requires_grad:
            x._accumulate(g * mask)

    # the bits of where(mask, x, 0.0) without its slow masked select:
    # fmax maps NaN to 0, and + 0.0 turns -0.0 into +0.0
    y = np.fmax(x.data, 0.0)
    y += 0.0
    return Tensor._result(y, (x,), backward)


def forward(net, x: Tensor) -> Tensor:
    h = x
    n = len(net.weights)
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        h = h @ w + b
        if i < n - 1:
            h = relu(h)
    return h
