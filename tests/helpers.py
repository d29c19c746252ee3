import numpy as np

from gliomil.autodiff import Tensor


def make_param(arr):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=True)

