module Rng = Yield_stats.Rng
module Summary = Yield_stats.Summary
module Metrics = Yield_obs.Metrics
module Span = Yield_obs.Span
module Fault = Yield_resilience.Fault
module Pool = Yield_exec.Pool

type 'a counted = { results : 'a array; attempted : int; failed : int }

let c_attempted = Metrics.counter "mc.samples.attempted"

let c_failed = Metrics.counter "mc.samples.failed"

(* [mc.sample] fault: the sample is lost (as if the simulation under it had
   failed).  Each batch reserves a block of hit indices up front and decides
   per global sample index, so the serial and parallel paths — and any
   domain interleaving — inject on exactly the same samples. *)
let fp_sample = Fault.point "mc.sample"

let record ~attempted ~failed =
  Metrics.add c_attempted attempted;
  Metrics.add c_failed failed

let run_counted ~samples ~rng f =
  Span.with_ ~name:"mc.batch" (fun () ->
      let base = Fault.advance fp_sample ~by:samples in
      let results = ref [] in
      let failed = ref 0 in
      for i = 0 to samples - 1 do
        (* always split the child stream, even for an injected sample, so
           injection never shifts the streams of the samples after it *)
        let child = Rng.split rng in
        match if Fault.fire_at fp_sample ~index:(base + i) then None else f child with
        | Some r -> results := r :: !results
        | None -> incr failed
      done;
      record ~attempted:samples ~failed:!failed;
      {
        results = Array.of_list (List.rev !results);
        attempted = samples;
        failed = !failed;
      })

let run ~samples ~rng f = (run_counted ~samples ~rng f).results

let run_pool_counted ~pool ~samples ~rng f =
  if Pool.jobs pool <= 1 || samples <= 1 then run_counted ~samples ~rng f
  else
    Span.with_ ~name:"mc.batch" (fun () ->
        (* split all child streams sequentially first, so the sample streams
           are identical to the serial path *)
        let children = Array.init samples (fun _ -> Rng.split rng) in
        let c =
          Pool.map_counted pool ~fault:fp_sample ~n:samples (fun i ->
              f children.(i))
        in
        record ~attempted:c.Pool.attempted ~failed:c.Pool.failed;
        {
          results = c.Pool.results;
          attempted = c.Pool.attempted;
          failed = c.Pool.failed;
        })

let run_pool ~pool ~samples ~rng f = (run_pool_counted ~pool ~samples ~rng f).results

type yield_estimate = {
  pass : int;
  total : int;
  yield : float;
  ci_low : float;
  ci_high : float;
}

let estimate_yield ~pass ~total =
  if total <= 0 then invalid_arg "Montecarlo.estimate_yield: empty sample";
  if pass < 0 || pass > total then
    invalid_arg "Montecarlo.estimate_yield: pass outside [0, total]";
  let n = float_of_int total and k = float_of_int pass in
  let p = k /. n in
  (* Wilson score interval, z = 1.96 *)
  let z = 1.96 in
  let z2 = z *. z in
  let denom = 1. +. (z2 /. n) in
  let centre = (p +. (z2 /. (2. *. n))) /. denom in
  let half =
    z /. denom *. sqrt ((p *. (1. -. p) /. n) +. (z2 /. (4. *. n *. n)))
  in
  {
    pass;
    total;
    yield = p;
    ci_low = Float.max 0. (centre -. half);
    ci_high = Float.min 1. (centre +. half);
  }

let yield_of ok results =
  let pass = Array.fold_left (fun acc r -> if ok r then acc + 1 else acc) 0 results in
  estimate_yield ~pass ~total:(Array.length results)

type yield_outcome =
  | Estimate of yield_estimate
  | No_valid_samples of { attempted : int; failed : int }

let yield_of_counted ok counted =
  if Array.length counted.results = 0 then
    No_valid_samples { attempted = counted.attempted; failed = counted.failed }
  else Estimate (yield_of ok counted.results)

let yield_outcome_to_string = function
  | Estimate e ->
      Printf.sprintf "%.1f %% (%d/%d, 95 %% CI %.1f–%.1f %%)" (100. *. e.yield)
        e.pass e.total (100. *. e.ci_low) (100. *. e.ci_high)
  | No_valid_samples { attempted; failed } ->
      Printf.sprintf "yield unknown (0 valid samples, %d/%d failed)" failed
        attempted

let spread_pct xs ~nominal =
  if Array.length xs = 0 then invalid_arg "Montecarlo.spread_pct: empty sample";
  if nominal = 0. then invalid_arg "Montecarlo.spread_pct: zero nominal";
  (* robust location/scale (median, IQR/1.349): a circuit sample can jump to
     a different operating branch and land far outside the main mode, and a
     plain 3-sigma envelope would be dominated by that single sample *)
  let centre = Summary.median xs in
  let iqr = Summary.quantile xs 0.75 -. Summary.quantile xs 0.25 in
  let sd = iqr /. 1.349 in
  let hi = centre +. (3. *. sd) and lo = centre -. (3. *. sd) in
  let dev = Float.max (Float.abs (hi -. nominal)) (Float.abs (nominal -. lo)) in
  100. *. dev /. Float.abs nominal
