(** MOS transistor model.

    A single-equation EKV-style model: smooth from weak to strong inversion,
    with slope factor, body effect, and channel-length modulation.  It stands
    in for the BSim3v3 foundry models of the paper (see DESIGN.md §2): the
    quantities the optimisation flow depends on — gm, gds, gmb and the device
    capacitances as functions of W, L and bias — have the correct first-order
    behaviour.

    All voltages in the [eval] interface are source-referenced NMOS-convention
    values; PMOS devices are handled by the device layer flipping signs. *)

type polarity = Nmos | Pmos

type model = {
  polarity : polarity;
  vth0 : float;  (** zero-bias threshold magnitude, V (positive for both) *)
  kp : float;  (** transconductance parameter mu*Cox, A/V^2 *)
  gamma : float;  (** body-effect coefficient, sqrt(V) *)
  phi : float;  (** surface potential, V *)
  lambda0 : float;  (** channel-length modulation, um/V: lambda = lambda0/L[um] *)
  n_slope : float;  (** subthreshold slope factor *)
  cox : float;  (** gate-oxide capacitance, F/m^2 *)
  cgso : float;  (** gate-source overlap, F/m *)
  cgdo : float;  (** gate-drain overlap, F/m *)
  cj : float;  (** junction area capacitance, F/m^2 *)
  cjsw : float;  (** junction sidewall capacitance, F/m *)
  ext : float;  (** source/drain diffusion extension, m *)
}

val temperature_voltage : float
(** kT/q at 300 K. *)

type region = Cutoff | Weak | Saturation | Triode

type op = {
  ids : float;  (** drain current, A (NMOS convention: positive into drain) *)
  gm : float;  (** dIds/dVgs, S *)
  gds : float;  (** dIds/dVds, S *)
  gmb : float;  (** dIds/dVbs, S *)
  vth : float;  (** body-adjusted threshold, V *)
  vdsat : float;  (** saturation voltage, V *)
  vgs : float;
  vds : float;
  vbs : float;
  region : region;
  cgs : float;  (** F *)
  cgd : float;
  cdb : float;
  csb : float;
}

val region_to_string : region -> string

(** {1 Scalar kernels}

    The EKV interpolation kernels {!eval} is built from.  The corner
    analysis's interval evaluator takes its endpoint images from these same
    functions, so both evaluate identical floats. *)

val sigmoid : float -> float
(** [1 / (1 + e^-x)], overflow-safe: exactly 1 above 40, [e^x] below
    -40. *)

val ekv_f : float -> float
(** The EKV interpolation function [F(x) = ln^2 (1 + e^(x/2))]. *)

val ekv_f' : float -> float
(** Its derivative, [ln (1 + e^(x/2)) / (1 + e^(-x/2))]. *)

val eval : model -> w:float -> l:float -> vgs:float -> vds:float -> vbs:float -> op
(** Evaluate at a bias point.  [w] and [l] in metres.  Handles [vds < 0] by
    source/drain exchange so Newton iterations may pass through reversal.
    @raise Invalid_argument for non-positive [w] or [l]. *)

(** {1 Newton linearisation}

    What a Newton iteration needs of a device — the drain current and
    its three derivatives — without the capacitances, region or
    saturation voltage of {!eval}, and without allocating: the caller
    owns one {!lin} and reuses it for every device. *)

type lin = {
  mutable lin_vgs : float;  (** bias in: source-referenced, NMOS convention *)
  mutable lin_vds : float;
  mutable lin_vbs : float;
  mutable lin_ids : float;  (** out: the {!op} fields of the same name *)
  mutable lin_gm : float;
  mutable lin_gds : float;
  mutable lin_gmb : float;
  mutable lin_vth : float;
}

val lin : unit -> lin
(** A fresh scratch record (all zero). *)

val linearise : model -> w:float -> l:float -> lin -> unit
(** [linearise m ~w ~l t] reads the bias from [t] and writes [ids], [gm],
    [gds], [gmb] and [vth] into it: the same floats {!eval} returns for
    that bias.
    @raise Invalid_argument for non-positive [w] or [l], with {!eval}'s
    message. *)

val with_deltas : model -> dvth:float -> dkp_rel:float -> dlambda_rel:float -> model
(** [with_deltas m ~dvth ~dkp_rel ~dlambda_rel] is [m] with threshold shifted
    by [dvth] volts, [kp] scaled by [1 + dkp_rel] and [lambda0] scaled by
    [1 + dlambda_rel]; the hook used by process-variation sampling. *)
