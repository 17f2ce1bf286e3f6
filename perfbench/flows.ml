(* The flow side of the benchmark: untraced Flow.run calls, the simulation
   accounting gate and the design-quality measures (spec yield and model
   error) over a fixed spec set. *)

open Common
module Config = Yield_core.Config
module Flow = Yield_core.Flow
module Experiments = Yield_core.Experiments
module Wbga = Yield_ga.Wbga
module Ga = Yield_ga.Ga
module Perf_model = Yield_behavioural.Perf_model
module Var_model = Yield_behavioural.Var_model
module Macromodel = Yield_behavioural.Macromodel
module Yield_target = Yield_behavioural.Yield_target
module Ota = Yield_circuits.Ota
module Tb = Yield_circuits.Ota_testbench
module Span = Yield_obs.Span
module Metrics = Yield_obs.Metrics

(* The paper's §4 configuration (seed 2008: a 99-point front, 29,899
   simulations) on the dense solver, serial (jobs = 1: see
   Common.pin_to_one_cpu).  The flow input is fixed: other seeds give
   fronts of 81 to 408 points, so the workload size would swing 3.5x with
   the benchmark seed. *)
let paper = Config.paper_scale

(* the same WBGA, but a light variation step: the GA and the
   rebuild-per-evaluation testbench path dominate *)
let wbga_heavy = { paper with Config.mc_samples = 40; front_stride = 4 }

let c_mc_failed = Metrics.counter "mc.samples.failed"

let c_degraded = Metrics.counter "flow.points.degraded"

type run = {
  flow : Flow.t;
  wall_s : float;  (** the Flow.run call, probes included *)
  ref_s : float;
      (** the Flow.run call in reference seconds (Common.reference_s); the
          wall clock when the run was not probed *)
  probe_s : float;  (** mean probe time; nan when not probed *)
  pre_wbga_s : float;  (** call until the flow.wbga span opens *)
  tables : string list;  (** the saved table files' bytes *)
  mc_failed : int;
  degraded : int;
}

(* [~probed:true] runs the host-speed probe through the flow (the
   end-to-end runs); the traced run leaves it out *)
let run_flow ?(probed = false) ~dir cfg =
  let opened = ref nan in
  let id =
    Span.subscribe (fun phase (e : Span.event) ->
        match phase with
        | Span.Opened when e.Span.name = "flow.wbga" && Float.is_nan !opened ->
            opened := now_s ()
        | Span.Opened | Span.Closed -> ())
  in
  let failed0 = Metrics.value c_mc_failed in
  let degraded0 = Metrics.value c_degraded in
  let t0 = now_s () in
  let flow, p =
    Fun.protect
      ~finally:(fun () -> Span.unsubscribe id)
      (fun () ->
        if probed then with_probes (fun () -> Flow.run cfg) else (Flow.run cfg, probes ()))
  in
  let wall_s = now_s () -. t0 in
  {
    flow;
    wall_s;
    ref_s = reference_s p ~wall_s;
    probe_s = (if p.count = 0 then nan else mean_probe_s p);
    pre_wbga_s = !opened -. t0;
    tables = List.map read_file (Flow.save_tables flow ~dir);
    mc_failed = Metrics.value c_mc_failed - failed0;
    degraded = Metrics.value c_degraded - degraded0;
  }

let analysed_points (cfg : Config.t) (flow : Flow.t) =
  let stride = Stdlib.max 1 cfg.Config.front_stride in
  (Array.length flow.Flow.front_points + stride - 1) / stride

(* sims_total = WBGA evaluations + front re-simulations + MC samples on
   every analysed front point *)
let check_sims (cfg : Config.t) (flow : Flow.t) =
  let evals = cfg.Config.ga.Ga.population_size * cfg.Config.ga.Ga.generations in
  let front = Array.length flow.Flow.wbga.Wbga.front in
  let analysed = analysed_points cfg flow in
  let expected = evals + front + (cfg.Config.mc_samples * analysed) in
  let total = Flow.total_sims flow.Flow.counts in
  check "sims_total accounting" (total = expected)
    (Printf.sprintf "%d = %d + %d + %d x %d" total evals front
       cfg.Config.mc_samples analysed);
  total

(* ---------- design quality ---------- *)

let sweep_fracs = [| 0.2; 0.35; 0.5; 0.65; 0.8 |]

let verify_samples = 200

let verify_seed = 77

(* Experiments.spec_for_flow (the Table 3 spec) plus five specs along the
   front, built by the same recipe: a gain inside both tables' gain
   domains, the PM 3 degrees under the front at the inflated gain *)
let spec_set (flow : Flow.t) =
  let perf = flow.Flow.perf_model and var = flow.Flow.var_model in
  let plo, phi = Perf_model.gain_range perf in
  let vlo, vhi = Var_model.gain_domain var in
  let lo = Float.max plo vlo and hi = Float.min phi vhi in
  let pm_lo, pm_hi = Var_model.pm_domain var in
  let points = Perf_model.points perf in
  let along frac =
    let gain = lo +. (frac *. (hi -. lo)) in
    let inflated = gain *. (1. +. (Var_model.dgain_at var ~gain_db:gain /. 100.)) in
    let nearest =
      Array.fold_left
        (fun (best : Perf_model.point) (p : Perf_model.point) ->
          if
            Float.abs (p.Perf_model.gain_db -. inflated)
            < Float.abs (best.Perf_model.gain_db -. inflated)
          then p
          else best)
        points.(0) points
    in
    let pm = Float.max pm_lo (Float.min pm_hi (nearest.Perf_model.pm_deg -. 3.)) in
    { Yield_target.min_gain_db = gain; min_pm_deg = pm }
  in
  Array.append [| Experiments.spec_for_flow flow |] (Array.map along sweep_fracs)

type quality = {
  spec_yield : float;  (** mean verified yield over the spec set *)
  model_err_pct : float;
      (** worst unguarded-lookup vs re-simulation error, over the specs
          whose unguarded lookup is a simulatable design *)
  unsimulatable : int;
      (** specs whose unguarded lookup interpolates to a non-physical
          geometry (a defect of the raw lookup, not an operation failure) *)
  sims : int;
  failed : int;
}

let quality (flow : Flow.t) =
  let conditions = flow.Flow.config.Config.conditions in
  let sims = ref 0 and failed = ref 0 and unsimulatable = ref 0 in
  let yields = ref [] and errs = ref [] in
  Array.iteri
    (fun i (spec : Yield_target.spec) ->
      let tag =
        Printf.sprintf "%s %.2f dB / %.2f deg"
          (if i = 0 then "table3" else Printf.sprintf "sweep%d" i)
          spec.Yield_target.min_gain_db spec.Yield_target.min_pm_deg
      in
      match Flow.design_for_spec flow spec with
      | Error msg ->
          incr failed;
          yields := 0. :: !yields;
          log "quality %s: no design (%s)" tag msg
      | Ok plan ->
          let proposal = plan.Yield_target.proposal in
          let design = proposal.Macromodel.design in
          (match
             Flow.verify_design flow ~samples:verify_samples ~seed:verify_seed
               ~spec (Ota.params_of_array design.Perf_model.params)
           with
          | Ok v ->
              let y = v.Flow.yield in
              sims := !sims + 1 + verify_samples;
              failed := !failed + (verify_samples - y.Yield_process.Montecarlo.total);
              yields := y.Yield_process.Montecarlo.yield :: !yields;
              log "quality %s: design at %.2f dB / %.2f deg, verified yield %.3f"
                tag design.Perf_model.gain_db design.Perf_model.pm_deg
                y.Yield_process.Montecarlo.yield
          | Error msg ->
              sims := !sims + 1 + verify_samples;
              incr failed;
              yields := 0. :: !yields;
              log "quality %s: verification failed (%s)" tag msg);
          (* the paper's Table 4 measure: raw [$table_model] lookup at the
             inflated targets against a transistor-level re-simulation *)
          let raw =
            Perf_model.lookup ~guard:false flow.Flow.perf_model
              ~gain_db:proposal.Macromodel.proposed_gain_db
              ~pm_deg:proposal.Macromodel.proposed_pm_deg
          in
          incr sims;
          (match Tb.evaluate ~conditions (Ota.params_of_array raw.Perf_model.params) with
          | exception Invalid_argument msg ->
              incr unsimulatable;
              log "quality %s: raw lookup is not simulatable (%s)" tag msg
          | Some perf ->
              (* Table 4's error: relative to the transistor-level value *)
              let rel sim model = Float.abs (sim -. model) /. Float.abs sim *. 100. in
              let e =
                Float.max
                  (rel perf.Tb.gain_db raw.Perf_model.gain_db)
                  (rel perf.Tb.phase_margin_deg raw.Perf_model.pm_deg)
              in
              errs := e :: !errs
          | None ->
              incr failed;
              log "quality %s: re-simulation of the raw lookup failed" tag))
    (spec_set flow);
  let ys = Array.of_list !yields in
  {
    spec_yield = sum ys /. float_of_int (Array.length ys);
    model_err_pct = List.fold_left Float.max 0. !errs;
    unsimulatable = !unsimulatable;
    sims = !sims;
    failed = !failed;
  }
