(* The traced replay: Flow.run's pipeline recomposed from public functions
   at jobs = 1, with a timer and a minor-words counter around every call
   into a layer.

   - WBGA: Wbga.run with an evaluate closure composing Testbench.build ->
     Dcop.solve_with_retry -> Ac.transfer_by_name -> Testbench.perf_of_bode
     (what Testbench.evaluate does);
   - front re-simulation: the same composition per front entry;
   - Monte Carlo: Testbench.session per analysed point, then
     Montecarlo.run_pool_counted over Variation.overrides -> Dcop/Ac with
     ~sys/~models (what Testbench.evaluate_in_session does);
   - tables: Perf_model/Var_model.create and Flow.save_tables.

   The RNG streams are consumed exactly as Flow.run consumes them, so the
   replay's tables must be byte-identical to Flow.run's. *)

open Common
module Config = Yield_core.Config
module Flow = Yield_core.Flow
module Wbga = Yield_ga.Wbga
module Rng = Yield_stats.Rng
module Pool = Yield_exec.Pool
module Montecarlo = Yield_process.Montecarlo
module Variation = Yield_process.Variation
module Dcop = Yield_spice.Dcop
module Ac = Yield_spice.Ac
module Linsys = Yield_numeric.Linsys
module Ota = Yield_circuits.Ota
module Gtb = Yield_circuits.Testbench
module T = Gtb.Make (Ota)
module Perf_model = Yield_behavioural.Perf_model
module Var_model = Yield_behavioural.Var_model
module Macromodel = Yield_behavioural.Macromodel
module Config_lint = Yield_analyse.Config_lint
module Metrics = Yield_obs.Metrics

type t = {
  wall_s : float;  (** first WBGA call to the tables on disk *)
  tables : string list;
  wbga : Wbga.result;
  wbga_s : float;
  evaluate : acc;  (** the whole WBGA evaluate closure *)
  build : acc;
  dc_nominal : acc;
  ac_nominal : acc;
  extract : acc;  (** nominal and Monte Carlo *)
  session : acc;
  overrides : acc;
  dc_mc : acc;
  ac_mc : acc;
  table_build : acc;
  table_write : acc;
  dc_solves : int;
  newton_iters : int;
  ac_points : int;
  retries : int;
  mc_attempted : int;
  mc_failed : int;
  degraded : int;
  table_rows : int;
}

let c_retries = Metrics.counter "retry.dcop.solve.retries"

let run ~dir (cfg : Config.t) =
  let cfg = { cfg with Config.jobs = 1 } in
  let conditions = cfg.Config.conditions in
  let evaluate_acc = acc () and build = acc () and dc_nominal = acc () in
  let ac_nominal = acc () and extract = acc () and session = acc () in
  let overrides = acc () and dc_mc = acc () and ac_mc = acc () in
  let table_build = acc () and table_write = acc () in
  let dc_solves = ref 0 and newton_iters = ref 0 and ac_points = ref 0 in
  let retries0 = Metrics.value c_retries in
  let solved = function
    | Ok (op : Dcop.t) ->
        incr dc_solves;
        newton_iters := !newton_iters + op.Dcop.iterations
    | Error _ -> incr dc_solves
  in
  let swept (b : Ac.bode) =
    ac_points := !ac_points + Array.length b.Ac.freqs;
    b
  in
  let nominal params =
    let circuit, _out = time build (fun () -> T.build ~conditions params) in
    let dc = time dc_nominal (fun () -> Dcop.solve_with_retry circuit) in
    solved dc;
    match dc with
    | Error _ -> None
    | Ok op ->
        let b =
          swept
            (time ac_nominal (fun () ->
                 Ac.transfer_by_name circuit op ~out:"out"
                   ~freqs:(Gtb.freqs_of conditions)))
        in
        time extract (fun () -> Gtb.perf_of_bode conditions b)
  in
  let evaluate params =
    time evaluate_acc (fun () ->
        match nominal (Ota.params_of_array params) with
        | Some perf when Gtb.feasible conditions perf -> Some (Gtb.objectives perf)
        | Some _ | None -> None)
  in
  let pool = Pool.create ~jobs:1 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let t_start = now_s () in
  let wbga =
    Wbga.run ~config:cfg.Config.ga ~pool ~param_ranges:Ota.param_ranges
      ~objectives:
        [| { Wbga.name = "gain"; maximise = true }; { Wbga.name = "pm"; maximise = true } |]
      ~rng:(Rng.create cfg.Config.seed) ~evaluate ()
  in
  let wbga_s = now_s () -. t_start in
  let entries = wbga.Wbga.front in
  let perfs =
    Pool.map pool ~n:(Array.length entries) (fun i ->
        nominal (Ota.params_of_array entries.(i).Wbga.params))
  in
  let front_points =
    Array.to_list (Array.map2 (fun e p -> (e, p)) entries perfs)
    |> List.filter_map (fun ((e : Wbga.entry), perf) ->
           Option.map
             (fun (perf : Gtb.perf) ->
               {
                 Perf_model.gain_db = perf.Gtb.gain_db;
                 pm_deg = perf.Gtb.phase_margin_deg;
                 params = e.Wbga.params;
                 rout = perf.Gtb.rout_est;
                 unity_gain_hz = perf.Gtb.unity_gain_hz;
               })
             perf)
    |> Array.of_list
  in
  let stride = Stdlib.max 1 cfg.Config.front_stride in
  let mc_rng = Rng.create (cfg.Config.seed + 1) in
  let spec = cfg.Config.variation in
  let var_points = ref [] and attempted = ref 0 and failed = ref 0 in
  let degraded = ref 0 in
  Array.iteri
    (fun i (p : Perf_model.point) ->
      if i mod stride = 0 then begin
        let s =
          time session (fun () ->
              T.session ~conditions ~solver:Linsys.Dense
                (Ota.params_of_array p.Perf_model.params))
        in
        let circuit = T.session_circuit s and sys = T.session_sys s in
        let outcome =
          Montecarlo.run_pool_counted ~pool ~samples:cfg.Config.mc_samples ~rng:mc_rng
            (fun sample_rng ->
              let models =
                time overrides (fun () -> Variation.overrides spec sample_rng circuit)
              in
              let dc =
                time dc_mc (fun () -> Dcop.solve_with_retry ~sys ~models circuit)
              in
              solved dc;
              match dc with
              | Error _ -> None
              | Ok op ->
                  let b =
                    swept
                      (time ac_mc (fun () ->
                           Ac.transfer_by_name ~sys circuit op ~out:"out"
                             ~freqs:(Gtb.freqs_of conditions)))
                  in
                  time extract (fun () -> Gtb.perf_of_bode conditions b))
        in
        attempted := !attempted + outcome.Montecarlo.attempted;
        failed := !failed + outcome.Montecarlo.failed;
        let results = outcome.Montecarlo.results in
        if Array.length results >= Config_lint.min_valid_mc_samples then begin
          let gains = Array.map (fun (r : Gtb.perf) -> r.Gtb.gain_db) results in
          let pms = Array.map (fun (r : Gtb.perf) -> r.Gtb.phase_margin_deg) results in
          var_points :=
            {
              Var_model.gain_db = p.Perf_model.gain_db;
              pm_deg = p.Perf_model.pm_deg;
              dgain_pct = Montecarlo.spread_pct gains ~nominal:p.Perf_model.gain_db;
              dpm_pct = Montecarlo.spread_pct pms ~nominal:p.Perf_model.pm_deg;
              mc_samples = Array.length results;
            }
            :: !var_points
        end
        else incr degraded
      end)
    front_points;
  let var_points = Array.of_list (List.rev !var_points) in
  let control = cfg.Config.control in
  let perf_model, var_model, macromodel =
    time table_build (fun () ->
        let perf_model = Perf_model.create ~control front_points in
        let var_model = Var_model.create ~control var_points in
        (perf_model, var_model, Macromodel.create perf_model var_model))
  in
  let flow =
    {
      Flow.config = cfg;
      wbga;
      front_points;
      var_points;
      perf_model;
      var_model;
      macromodel;
      counts =
        {
          Flow.optimisation_sims = wbga.Wbga.evaluations;
          front_sims = Array.length entries;
          mc_sims = !attempted;
        };
      prescreen = None;
      timings = { Flow.optimisation_s = wbga_s; mc_s = nan; total_s = nan };
    }
  in
  let paths = time table_write (fun () -> Flow.save_tables flow ~dir) in
  let wall_s = now_s () -. t_start in
  {
    wall_s;
    tables = List.map read_file paths;
    wbga;
    wbga_s;
    evaluate = evaluate_acc;
    build;
    dc_nominal;
    ac_nominal;
    extract;
    session;
    overrides;
    dc_mc;
    ac_mc;
    table_build;
    table_write;
    dc_solves = !dc_solves;
    newton_iters = !newton_iters;
    ac_points = !ac_points;
    retries = Metrics.value c_retries - retries0;
    mc_attempted = !attempted;
    mc_failed = !failed;
    degraded = !degraded;
    table_rows =
      Yield_table.Tbl_io.n_rows (Perf_model.to_table perf_model)
      + Yield_table.Tbl_io.n_rows (Var_model.to_table var_model);
  }

(* busy time of the named leaf layers: GA self time (Wbga.run minus the
   evaluate closure) plus every timed call; what is left of the wall is
   glue (RNG splitting, spread estimation, list building) and the timers *)
let accounted_s r =
  (r.wbga_s -. r.evaluate.busy_s)
  +. List.fold_left
       (fun s a -> s +. a.busy_s)
       0.
       [
         r.build; r.dc_nominal; r.ac_nominal; r.extract; r.session; r.overrides;
         r.dc_mc; r.ac_mc; r.table_build; r.table_write;
       ]
