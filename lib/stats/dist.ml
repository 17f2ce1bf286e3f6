type t =
  | Normal of { mean : float; sigma : float }
  | Uniform of { lo : float; hi : float }
  | Lognormal of { mu : float; sigma : float }
  | Triangular of { lo : float; mode : float; hi : float }

(* max error 1.2e-7; adequate for yield estimates quoted to a percent *)
let erf x =
  let sign = if x < 0. then -1. else 1. in
  let x = Float.abs x in
  let t = 1. /. (1. +. (0.3275911 *. x)) in
  let poly =
    ((((((1.061405429 *. t) -. 1.453152027) *. t) +. 1.421413741) *. t
     -. 0.284496736)
     *. t)
    +. 0.254829592
  in
  sign *. (1. -. (poly *. t *. exp (-.x *. x)))

let normal_cdf ~mean ~sigma x =
  0.5 *. (1. +. erf ((x -. mean) /. (sigma *. sqrt 2.)))

(* Acklam's algorithm for the inverse normal CDF, then one Halley refinement
   step using the forward CDF above. *)
let standard_normal_quantile p =
  if p <= 0. || p >= 1. then invalid_arg "Dist.normal_quantile: p outside (0,1)";
  let a =
    [| -3.969683028665376e+01; 2.209460984245205e+02; -2.759285104469687e+02;
       1.383577518672690e+02; -3.066479806614716e+01; 2.506628277459239e+00 |]
  in
  let b =
    [| -5.447609879822406e+01; 1.615858368580409e+02; -1.556989798598866e+02;
       6.680131188771972e+01; -1.328068155288572e+01 |]
  in
  let c =
    [| -7.784894002430293e-03; -3.223964580411365e-01; -2.400758277161838e+00;
       -2.549732539343734e+00; 4.374664141464968e+00; 2.938163982698783e+00 |]
  in
  let d =
    [| 7.784695709041462e-03; 3.224671290700398e-01; 2.445134137142996e+00;
       3.754408661907416e+00 |]
  in
  let p_low = 0.02425 in
  let tail q =
    let num =
      (((((c.(0) *. q) +. c.(1)) *. q +. c.(2)) *. q +. c.(3)) *. q +. c.(4))
      *. q
      +. c.(5)
    in
    let den =
      ((((d.(0) *. q) +. d.(1)) *. q +. d.(2)) *. q +. d.(3)) *. q +. 1.
    in
    num /. den
  in
  let x =
    if p < p_low then tail (sqrt (-2. *. log p))
    else if p <= 1. -. p_low then begin
      let q = p -. 0.5 in
      let r = q *. q in
      ((((((a.(0) *. r) +. a.(1)) *. r +. a.(2)) *. r +. a.(3)) *. r +. a.(4))
       *. r
      +. a.(5))
      *. q
      /. (((((((b.(0) *. r) +. b.(1)) *. r +. b.(2)) *. r +. b.(3)) *. r
           +. b.(4))
           *. r
          +. 1.))
    end
    else -.tail (sqrt (-2. *. log (1. -. p)))
  in
  (* Halley refinement *)
  let e = normal_cdf ~mean:0. ~sigma:1. x -. p in
  let u = e *. sqrt (2. *. Float.pi) *. exp (x *. x /. 2.) in
  x -. (u /. (1. +. (x *. u /. 2.)))

let normal_quantile ~mean ~sigma p = mean +. (sigma *. standard_normal_quantile p)

let sample d rng =
  match d with
  | Normal { mean; sigma } -> Rng.normal rng ~mean ~sigma
  | Uniform { lo; hi } -> Rng.uniform rng lo hi
  | Lognormal { mu; sigma } -> exp (Rng.normal rng ~mean:mu ~sigma)
  | Triangular { lo; mode; hi } ->
      let u = Rng.float rng in
      let fc = (mode -. lo) /. (hi -. lo) in
      if u < fc then lo +. sqrt (u *. (hi -. lo) *. (mode -. lo))
      else hi -. sqrt ((1. -. u) *. (hi -. lo) *. (hi -. mode))

let mean = function
  | Normal { mean; _ } -> mean
  | Uniform { lo; hi } -> 0.5 *. (lo +. hi)
  | Lognormal { mu; sigma } -> exp (mu +. (sigma *. sigma /. 2.))
  | Triangular { lo; mode; hi } -> (lo +. mode +. hi) /. 3.

let variance = function
  | Normal { sigma; _ } -> sigma *. sigma
  | Uniform { lo; hi } ->
      let w = hi -. lo in
      w *. w /. 12.
  | Lognormal { mu; sigma } ->
      let s2 = sigma *. sigma in
      (exp s2 -. 1.) *. exp ((2. *. mu) +. s2)
  | Triangular { lo; mode; hi } ->
      ((lo *. lo) +. (mode *. mode) +. (hi *. hi) -. (lo *. mode) -. (lo *. hi)
      -. (mode *. hi))
      /. 18.

let cdf d x =
  match d with
  | Normal { mean; sigma } -> normal_cdf ~mean ~sigma x
  | Uniform { lo; hi } ->
      if x <= lo then 0. else if x >= hi then 1. else (x -. lo) /. (hi -. lo)
  | Lognormal { mu; sigma } ->
      if x <= 0. then 0. else normal_cdf ~mean:mu ~sigma (log x)
  | Triangular { lo; mode; hi } ->
      if x <= lo then 0.
      else if x >= hi then 1.
      else if x <= mode then
        (x -. lo) *. (x -. lo) /. ((hi -. lo) *. (mode -. lo))
      else 1. -. ((hi -. x) *. (hi -. x) /. ((hi -. lo) *. (hi -. mode)))

let quantile d p =
  if p <= 0. || p >= 1. then invalid_arg "Dist.quantile: p outside (0,1)";
  match d with
  | Normal { mean; sigma } -> normal_quantile ~mean ~sigma p
  | Uniform { lo; hi } -> lo +. (p *. (hi -. lo))
  | Lognormal { mu; sigma } -> exp (normal_quantile ~mean:mu ~sigma p)
  | Triangular { lo; mode; hi } ->
      let fc = (mode -. lo) /. (hi -. lo) in
      if p < fc then lo +. sqrt (p *. (hi -. lo) *. (mode -. lo))
      else hi -. sqrt ((1. -. p) *. (hi -. lo) *. (hi -. mode))
