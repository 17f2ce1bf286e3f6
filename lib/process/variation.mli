(** Statistical process variation: the foundry-model substitute.

    Two components, following the standard structure of foundry statistical
    decks (and the paper's ref [11]):

    - {b global} (inter-die) variation: one draw per Monte Carlo sample shifts
      VTH0, KP and lambda of all devices of a polarity together;
    - {b local mismatch} (intra-die): each transistor additionally receives an
      independent threshold and beta perturbation following Pelgrom's law,
      [sigma(dVth) = avt / sqrt (W L)], [sigma(dBeta/Beta) = abeta / sqrt (W L)].

    The default coefficients keep this standard structure but are calibrated
    so the resulting OTA performance spreads match the order of magnitude the
    paper's Table 2 reports (the actual foundry deck being proprietary);
    see DESIGN.md §2. *)

type global_spec = {
  sigma_vth_n : float;  (** V, one-sigma NMOS threshold shift *)
  sigma_vth_p : float;
  sigma_kp_rel_n : float;  (** relative one-sigma on NMOS kp *)
  sigma_kp_rel_p : float;
  sigma_lambda_rel : float;  (** relative one-sigma on lambda, both polarities *)
}

type mismatch_spec = {
  avt_n : float;  (** V * m  (e.g. 9.5 mV*um = 9.5e-9 V*m) *)
  avt_p : float;
  abeta_n : float;  (** m  (relative mismatch coefficient) *)
  abeta_p : float;
}

type spec = { global : global_spec; mismatch : mismatch_spec }

val default_spec : spec

val zero_spec : spec
(** All sigmas zero; Monte Carlo through it reproduces nominal exactly. *)

val scale_spec : float -> spec -> spec
(** Multiply every sigma by a factor (for sensitivity/ablation studies). *)

type global_draw = {
  dvth_n : float;
  dvth_p : float;
  dkp_rel_n : float;
  dkp_rel_p : float;
  dlambda_rel : float;
}

val draw_global : spec -> Yield_stats.Rng.t -> global_draw

val global_dims : int
(** Number of independent global components (for stratified sampling). *)

val global_draw_of_normals : spec -> float array -> global_draw
(** Build a global draw from [global_dims] standard-normal deviates — the
    hook for Latin-hypercube (or quasi-Monte Carlo) global sampling.
    @raise Invalid_argument on arity mismatch. *)

val nominal_global : global_draw
(** All-zero draw. *)

val mismatch_sigma_vth :
  spec -> Yield_spice.Mosfet.polarity -> w:float -> l:float -> float
(** Pelgrom threshold sigma for a device geometry, V. *)

val mismatch_sigma_beta :
  spec -> Yield_spice.Mosfet.polarity -> w:float -> l:float -> float
(** Pelgrom relative current-factor sigma for a device geometry: the exact
    float the sampler scales its mismatch deviate by, so the corner
    analysis's parameter box contains every sample. *)

val perturb_model :
  spec -> global_draw -> Yield_stats.Rng.t ->
  w:float -> l:float -> Yield_spice.Mosfet.model -> Yield_spice.Mosfet.model
(** Apply the global draw plus a freshly sampled local mismatch to a device
    model. *)

(** {1 Per-sample overrides}

    A Monte Carlo sample is a per-device model override array
    ({!Yield_spice.Mna.models}): the circuit is instantiated once per
    design point and every sample patches its MOSFET models instead of
    rebuilding it; this is the only runtime sampled-evaluation path.  All
    three builders share one per-device walk, which consumes mismatch deviates
    in reverse device-array order (threshold, then beta, per MOSFET), so
    the samples of a seed never change. *)

val overrides :
  spec -> Yield_stats.Rng.t -> Yield_spice.Circuit.t -> Yield_spice.Mna.models
(** One Monte Carlo sample: draws a global sample ({!draw_global}), then an
    independent mismatch for every MOSFET. *)

val overrides_with_draw :
  spec -> global_draw -> Yield_stats.Rng.t -> Yield_spice.Circuit.t ->
  Yield_spice.Mna.models
(** Like {!overrides} but with an externally supplied global draw
    (stratified/LHS sampling, sensitivity analysis); mismatch is still
    drawn from [rng]. *)

val overrides_gen :
  spec -> (unit -> float) -> Yield_spice.Circuit.t -> Yield_spice.Mna.models
(** Like {!overrides} but with every standard-normal deviate supplied by
    the callback: the five global components (vth_n, vth_p, kp_n, kp_p,
    lambda) first, then a threshold and a beta mismatch deviate per MOSFET
    in reverse device-array order.  The hook for truncated or quasi-random
    sampling — the corner-soundness property tests draw deviates
    conditioned to the ±k·sigma box this way. *)

val apply_overrides :
  Yield_spice.Circuit.t -> Yield_spice.Mna.models -> Yield_spice.Circuit.t
(** Bake an override array into a fresh circuit (the input is unchanged).
    The test oracle of the patching path: an unpatched DC/AC solve of
    [apply_overrides c models] must equal the patched solve of [c] under
    [models] bit for bit. *)
