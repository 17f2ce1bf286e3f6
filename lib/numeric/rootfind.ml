let check_bracket name fa fb =
  if (fa > 0. && fb > 0.) || (fa < 0. && fb < 0.) then
    invalid_arg (name ^ ": root not bracketed")

let bisect ?(tol = 1e-12) ?(max_iter = 200) f a b =
  let fa = f a and fb = f b in
  if fa = 0. then a
  else if fb = 0. then b
  else begin
    check_bracket "Rootfind.bisect" fa fb;
    let rec loop a fa b i =
      let m = 0.5 *. (a +. b) in
      if i >= max_iter || 0.5 *. Float.abs (b -. a) <= tol *. (1. +. Float.abs m)
      then m
      else
        let fm = f m in
        if fm = 0. then m
        else if (fa < 0.) = (fm < 0.) then loop m fm b (i + 1)
        else loop a fa m (i + 1)
    in
    loop a fa b 0
  end

(* Brent (1973): keep a bracketing pair (a, b) with |f(b)| <= |f(a)|; try
   inverse quadratic interpolation, fall back to secant, fall back to
   bisection whenever the step misbehaves. *)
let brent ?(tol = 1e-12) ?(max_iter = 120) f a b =
  let fa = f a and fb = f b in
  if fa = 0. then a
  else if fb = 0. then b
  else begin
    check_bracket "Rootfind.brent" fa fb;
    let a = ref a and b = ref b and fa = ref fa and fb = ref fb in
    if Float.abs !fa < Float.abs !fb then begin
      let t = !a in
      a := !b;
      b := t;
      let t = !fa in
      fa := !fb;
      fb := t
    end;
    let c = ref !a and fc = ref !fa in
    let d = ref (!b -. !a) in
    let mflag = ref true in
    let iter = ref 0 in
    while
      !fb <> 0.
      && Float.abs (!b -. !a) > tol *. (1. +. Float.abs !b)
      && !iter < max_iter
    do
      incr iter;
      let s =
        if !fa <> !fc && !fb <> !fc then
          (* inverse quadratic interpolation *)
          (!a *. !fb *. !fc /. ((!fa -. !fb) *. (!fa -. !fc)))
          +. (!b *. !fa *. !fc /. ((!fb -. !fa) *. (!fb -. !fc)))
          +. (!c *. !fa *. !fb /. ((!fc -. !fa) *. (!fc -. !fb)))
        else !b -. (!fb *. (!b -. !a) /. (!fb -. !fa))
      in
      let lo = ((3. *. !a) +. !b) /. 4. and hi = !b in
      let lo, hi = if lo < hi then (lo, hi) else (hi, lo) in
      let use_bisection =
        s < lo || s > hi
        || (!mflag && Float.abs (s -. !b) >= Float.abs (!b -. !c) /. 2.)
        || ((not !mflag) && Float.abs (s -. !b) >= Float.abs !d /. 2.)
      in
      let s = if use_bisection then 0.5 *. (!a +. !b) else s in
      mflag := use_bisection;
      let fs = f s in
      d := !c -. !b;
      c := !b;
      fc := !fb;
      if (!fa < 0.) = (fs < 0.) then begin
        a := s;
        fa := fs
      end
      else begin
        b := s;
        fb := fs
      end;
      if Float.abs !fa < Float.abs !fb then begin
        let t = !a in
        a := !b;
        b := t;
        let t = !fa in
        fa := !fb;
        fb := t
      end
    done;
    !b
  end
