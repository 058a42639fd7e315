"""The package's numerical tolerances: one fixed policy, with no per-call override.

The one exception is gmeasure_from_cs, whose callers need two values (PAIR,
DERIVED_PAIR).  "Relative" means relative to max(1, the named scale).
"""

PAIR = 1e-9  # c^2 + k s^2 - 1 of a measured pair, relative to its terms; also s's sign slack
DERIVED_PAIR = 100.0 * PAIR  # the same, for the angle pairs solve_sas derives through the laws
SAS_RANGE = 1e-9  # absolute: solve_sas's cosine-like value beyond [-1, 1] or below 1
FLAT = 1e-9  # absolute: the cross (dot) product is_parallel (is_orthogonal) reads as zero
ISOMETRY = 1e-9  # validate's worst residual, each on the scale validate gives it
CONE = 1e-9  # cone membership slack; also a simplex vertex's |x (.) x - 1|, relative to x (.) x
PLANE_COLUMNS = 1e-8  # validated MPlane column products, relative to peak^4 of the columns
ABSOLUTE = 1e-12  # normalize's self-product on the absolute, relative to sum |K_i| x_i^2
SIGN_CUT = 1e-12  # share of the peak a coordinate needs to fix normalize's canonical sign
ROOT_SNAP = 1e-12  # negative cross radicand snapped to 0, relative to its term scale
NORM_FLOOR = 1e-12  # absolute: least g* and shell norm; relative: a simplex's least singular value
FACE_SLACK = 1e-12  # absolute: how far below 0 a face's stationary weights may fall
FORM_ROUNDING = 1e-12  # a sampled nu^T (L^2 G) nu's rounding, relative to L^2 max|G_ij|; needs (2c + 8) u
TIE_REL, TIE_ABS = 1e-12, 1e-15  # law_residuals' isclose: variant residuals this close tie
ENTRY_LIMIT = 1e150  # largest |entry| (validated m-plane: |entry|^(m+1)) squared unscaled, so sums stay finite
