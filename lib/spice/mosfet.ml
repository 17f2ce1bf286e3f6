type polarity = Nmos | Pmos

type model = {
  polarity : polarity;
  vth0 : float;
  kp : float;
  gamma : float;
  phi : float;
  lambda0 : float;
  n_slope : float;
  cox : float;
  cgso : float;
  cgdo : float;
  cj : float;
  cjsw : float;
  ext : float;
}

let temperature_voltage = 0.025852

type region = Cutoff | Weak | Saturation | Triode

type op = {
  ids : float;
  gm : float;
  gds : float;
  gmb : float;
  vth : float;
  vdsat : float;
  vgs : float;
  vds : float;
  vbs : float;
  region : region;
  cgs : float;
  cgd : float;
  cdb : float;
  csb : float;
}

let region_to_string = function
  | Cutoff -> "cutoff"
  | Weak -> "weak"
  | Saturation -> "saturation"
  | Triode -> "triode"

(* softplus and its derivative, overflow-safe.  [@inline] keeps the
   Newton linearisation from boxing an argument or result per call *)
let[@inline] softplus x =
  if x > 40. then x else if x < -40. then exp x else log (1. +. exp x)

let[@inline] sigmoid x =
  if x > 40. then 1. else if x < -40. then exp x else 1. /. (1. +. exp (-.x))

(* EKV interpolation function F(x) = ln^2(1 + e^(x/2)) and its derivative. *)
let ekv_f x =
  let s = softplus (x /. 2.) in
  s *. s

let ekv_f' x = softplus (x /. 2.) *. sigmoid (x /. 2.)

let with_deltas m ~dvth ~dkp_rel ~dlambda_rel =
  {
    m with
    vth0 = m.vth0 +. dvth;
    kp = m.kp *. (1. +. dkp_rel);
    lambda0 = m.lambda0 *. (1. +. dlambda_rel);
  }

type lin = {
  mutable lin_vgs : float;
  mutable lin_vds : float;
  mutable lin_vbs : float;
  mutable lin_ids : float;
  mutable lin_gm : float;
  mutable lin_gds : float;
  mutable lin_gmb : float;
  mutable lin_vth : float;
}

let lin () =
  {
    lin_vgs = 0.;
    lin_vds = 0.;
    lin_vbs = 0.;
    lin_ids = 0.;
    lin_gm = 0.;
    lin_gds = 0.;
    lin_gmb = 0.;
    lin_vth = 0.;
  }

(* The forward evaluation is written for vds >= 0, NMOS convention; in
   reverse operation the physical source is the drain terminal, so it runs
   on the exchanged bias and the chain rule maps the result back.  One
   function body, so every float stays unboxed. *)
let linearise m ~w ~l t =
  (* eval's check and message: Newton reaches a device only through here *)
  if w <= 0. || l <= 0. then invalid_arg "Mosfet.eval: non-positive geometry";
  let reversed = t.lin_vds < 0. in
  let vgs = if reversed then t.lin_vgs -. t.lin_vds else t.lin_vgs in
  let vds = if reversed then -.t.lin_vds else t.lin_vds in
  let vbs = if reversed then t.lin_vbs -. t.lin_vds else t.lin_vbs in
  let vt = temperature_voltage in
  let n = m.n_slope in
  (* body effect: vbs <= 0 increases vth.  Clamp the sqrt argument so Newton
     excursions into forward body bias do not produce NaN (Float.max with
     the NaN case spelled out: the stdlib call would box) *)
  let phi_vbs = m.phi -. vbs in
  let sarg = if phi_vbs > 0.05 || Float.is_nan phi_vbs then phi_vbs else 0.05 in
  let vth = m.vth0 +. (m.gamma *. (sqrt sarg -. sqrt m.phi)) in
  let dvth_dvbs = -.(m.gamma /. (2. *. sqrt sarg)) in
  let lambda = m.lambda0 /. (l *. 1e6) in
  let beta = m.kp *. w /. l in
  let i0 = 2. *. n *. beta *. vt *. vt in
  let a = (vgs -. vth) /. (n *. vt) in
  let b = (vgs -. vth -. (n *. vds)) /. (n *. vt) in
  (* ekv_f and ekv_f' share one softplus per argument *)
  let sa = softplus (a /. 2.) and sb = softplus (b /. 2.) in
  let fa = sa *. sa and fb = sb *. sb in
  let fa' = sa *. sigmoid (a /. 2.) and fb' = sb *. sigmoid (b /. 2.) in
  let clm = 1. +. (lambda *. vds) in
  let base = i0 *. (fa -. fb) in
  let ids = base *. clm in
  (* d a / d vgs = 1/(n vt); d b / d vgs = 1/(n vt); d b / d vds = -1/vt *)
  let gm = i0 *. (fa' -. fb') /. (n *. vt) *. clm in
  let gds = (i0 *. fb' /. vt *. clm) +. (base *. lambda) in
  (* vth depends on vbs: d ids/d vbs = d ids/d vth * dvth/dvbs, and
     d ids/d vth = -gm *)
  let gmb = -.gm *. dvth_dvbs in
  t.lin_vth <- vth;
  if reversed then begin
    (* I(vgs,vds) = -I'(vgs-vds, -vds); chain rule for the derivatives:
       dI/dvgs = -gm', dI/dvds = gm' + gds' + gmb', dI/dvbs = -gmb' *)
    t.lin_ids <- -.ids;
    t.lin_gm <- -.gm;
    t.lin_gds <- gm +. gds +. gmb;
    t.lin_gmb <- -.gmb
  end
  else begin
    t.lin_ids <- ids;
    t.lin_gm <- gm;
    t.lin_gds <- gds;
    t.lin_gmb <- gmb
  end

let eval m ~w ~l ~vgs ~vds ~vbs =
  let t = lin () in
  t.lin_vgs <- vgs;
  t.lin_vds <- vds;
  t.lin_vbs <- vbs;
  linearise m ~w ~l t;
  let reversed = vds < 0. in
  let vgs' = if reversed then vgs -. vds else vgs in
  let vds' = if reversed then -.vds else vds in
  let vt = temperature_voltage in
  let vth = t.lin_vth in
  let vdsat = Float.max (2. *. vt) ((vgs' -. vth) /. m.n_slope) in
  let region =
    if vgs' -. vth < -3. *. m.n_slope *. vt then Cutoff
    else if vgs' -. vth < 3. *. m.n_slope *. vt then Weak
    else if vds' > vdsat then Saturation
    else Triode
  in
  (* Meyer-style capacitances, blended smoothly across the region
     boundaries: a discrete switch makes poles (and hence phase margin) jump
     discontinuously under Monte Carlo perturbations of devices biased near
     a boundary.  [inversion] fades the intrinsic channel capacitance in as
     the channel forms; [saturated] slides the gate capacitance between the
     triode split (1/2, 1/2) and the saturation split (2/3, 0).  Only the
     AC, noise and transient analyses read them, at an operating point:
     Newton's {!linearise} leaves them out *)
  let cox_total = m.cox *. w *. l in
  let inversion = sigmoid ((vgs' -. vth) /. (2. *. m.n_slope *. vt)) in
  let saturated = sigmoid ((vds' -. vdsat) /. (2. *. vt)) in
  let cgs_i =
    cox_total *. inversion
    *. ((2. /. 3. *. saturated) +. (0.5 *. (1. -. saturated)))
  in
  let cgd_i = cox_total *. inversion *. 0.5 *. (1. -. saturated) in
  let cgs_f = cgs_i +. (m.cgso *. w) in
  let cgd_f = cgd_i +. (m.cgdo *. w) in
  let cgs, cgd = if reversed then (cgd_f, cgs_f) else (cgs_f, cgd_f) in
  let cjunction = (m.cj *. w *. m.ext) +. (m.cjsw *. ((2. *. m.ext) +. w)) in
  {
    ids = t.lin_ids;
    gm = t.lin_gm;
    gds = t.lin_gds;
    gmb = t.lin_gmb;
    vth;
    vdsat;
    vgs;
    vds;
    vbs;
    region;
    cgs;
    cgd;
    cdb = cjunction;
    csb = cjunction;
  }
