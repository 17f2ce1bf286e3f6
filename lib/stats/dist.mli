(** Probability distributions used by the process-variation models: sampling,
    densities, cumulative probabilities and quantiles. *)

type t =
  | Normal of { mean : float; sigma : float }
  | Uniform of { lo : float; hi : float }
  | Lognormal of { mu : float; sigma : float }
      (** log X ~ Normal(mu, sigma); positive-only parameters like tox. *)
  | Triangular of { lo : float; mode : float; hi : float }

val sample : t -> Rng.t -> float

val mean : t -> float

val variance : t -> float

val cdf : t -> float -> float

val quantile : t -> float -> float
(** [quantile d p] for [p] in (0, 1).
    @raise Invalid_argument outside that range. *)

val erf : float -> float
(** Abramowitz–Stegun 7.1.26-style rational approximation, |error| < 1.5e-7;
    exposed for tests. *)

val normal_cdf : mean:float -> sigma:float -> float -> float

val normal_quantile : mean:float -> sigma:float -> float -> float
(** Acklam's inverse-normal approximation, refined with one Halley step. *)
