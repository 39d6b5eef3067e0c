"""Program analyses: RSDs, dependence, side effects, aliasing, constants."""

from .rsd import RSD, Range, SymDim, merge_rsd_list, rsd, subs_to_rsd

__all__ = ["RSD", "Range", "SymDim", "rsd", "merge_rsd_list", "subs_to_rsd"]
