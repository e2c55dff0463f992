"""Exception types raised by flatlab."""


class KinkProximityError(RuntimeError):
    """An evaluation point sits too close to a rectifier kink.

    Second derivatives are exact on the activation pattern at the point.
    A hidden preactivation closer to a kink than ``band``, the rounding
    error bound of its own computation, may carry the wrong sign; the
    pattern, and with it the Hessian, is then not determined, so the
    routines refuse to run instead.
    """

    def __init__(self, distance: float, band: float, example_index: int,
                 layer: int, unit: int):
        self.distance = distance
        self.band = band
        self.example_index = example_index
        self.layer = layer
        self.unit = unit
        super().__init__(
            f"kink proximity: |preactivation| = {distance:.3e} <= band {band:.3e} "
            f"for hidden layer {layer}, unit {unit}, example {example_index}"
        )


class TrainingDivergedError(RuntimeError):
    """Gradient descent blew up instead of settling into a minimum."""

    def __init__(self, epoch: int, loss: float, initial_loss: float,
                 factor: float):
        self.epoch = epoch
        self.loss = loss
        self.initial_loss = initial_loss
        self.factor = factor
        super().__init__(
            f"training diverged at epoch {epoch}: loss {loss:.3e} "
            f"exceeds {factor:g} x initial loss {initial_loss:.3e}"
        )
