"""The parameter holder shared by the networks and the optimizers.

:class:`Tensor` is a float64 array with a ``.grad`` slot.  Gradients are not
computed here: every training loss in the repository -- the PPO policy and
critic, the DDPG actor and critic, the distillers -- and the FGSM input
gradient take theirs in closed form from :meth:`repro.nn.MLP._vjp`, one
layerwise vector-Jacobian product, and store them in ``.grad`` for an
optimizer to read.

>>> from repro.autodiff import Tensor
>>> weight = Tensor([[1.0, 2.0]], requires_grad=True)
>>> weight.grad = weight.data * 2.0
>>> weight.grad
array([[2., 4.]])
"""

from repro.autodiff.tensor import Tensor

__all__ = ["Tensor"]
