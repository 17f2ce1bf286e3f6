(* The benchmark harness: regenerates every table and figure of the paper's
   evaluation (§4-§5), then times the primitives behind the headline claim
   (behavioural-model queries vs transistor-level simulation) with Bechamel.

   Default scale is the paper's (10,000 optimisation samples, 200 MC samples
   per Pareto point, 500-sample verifications); set YIELDLAB_FAST=1 for a
   reduced smoke run.  Ablation studies at the end exercise the design
   choices DESIGN.md calls out. *)

module Config = Yield_core.Config
module Flow = Yield_core.Flow
module Experiments = Yield_core.Experiments
module Report = Yield_core.Report
module Ota = Yield_circuits.Ota
module Tb = Yield_circuits.Ota_testbench
module Filter = Yield_circuits.Filter
module Perf_model = Yield_behavioural.Perf_model
module Var_model = Yield_behavioural.Var_model
module Macromodel = Yield_behavioural.Macromodel
module Yield_target = Yield_behavioural.Yield_target
module Variation = Yield_process.Variation
module Wbga = Yield_ga.Wbga
module Pareto = Yield_ga.Pareto
module Nsga2 = Yield_ga.Nsga2
module Ga = Yield_ga.Ga
module Rng = Yield_stats.Rng
module Linsys = Yield_numeric.Linsys
module Json = Yield_obs.Json
module Metrics = Yield_obs.Metrics

(* ------------------------------------------------------------------ *)
(* Machine-readable record of the flow run: stage timings, simulation
   counts and the instrument snapshot, so the perf trajectory is diffable
   across PRs (the JSON schema is documented in README.md §Telemetry). *)

(* Jobs-sweep mode (YIELDLAB_JOBS_SWEEP="1,2,4"): re-run the flow at each
   jobs value and record the flow.wbga wall-clock and its speedup over the
   serial run, so a perf regression gate can be built on BENCH_flow.json. *)

let parse_jobs_sweep s =
  String.split_on_char ',' s
  |> List.filter_map (fun tok -> int_of_string_opt (String.trim tok))
  |> List.filter (fun n -> n >= 1)

let jobs_sweep config =
  match Sys.getenv_opt "YIELDLAB_JOBS_SWEEP" with
  | None | Some "" -> []
  | Some s ->
      let jobs_list = parse_jobs_sweep s in
      if jobs_list = [] then []
      else begin
        print_string (Report.section "Jobs sweep: flow.wbga scaling");
        let runs =
          List.map
            (fun jobs ->
              (* no preflight: its C006 finding (jobs above the core
                 count) depends on the host, and the gated counters must
                 not *)
              let flow = Flow.run ~preflight:false { config with Config.jobs } in
              Printf.printf "  jobs %d: wbga %.2f s, mc %.2f s, total %.2f s\n%!"
                jobs flow.Flow.timings.Flow.optimisation_s
                flow.Flow.timings.Flow.mc_s flow.Flow.timings.Flow.total_s;
              (jobs, flow.Flow.timings))
            jobs_list
        in
        let serial_wbga_s =
          Option.map
            (fun (t : Flow.timings) -> t.Flow.optimisation_s)
            (List.assoc_opt 1 runs)
        in
        List.map
          (fun (jobs, (t : Flow.timings)) ->
            let speedup =
              match serial_wbga_s with
              | Some s when t.Flow.optimisation_s > 0. ->
                  let x = s /. t.Flow.optimisation_s in
                  Printf.printf "  jobs %d: flow.wbga speedup %.2fx\n%!" jobs x;
                  Json.Float x
              | Some _ | None -> Json.Null
            in
            Json.Obj
              [
                ("jobs", Json.Int jobs);
                ("wbga_s", Json.Float t.Flow.optimisation_s);
                ("mc_s", Json.Float t.Flow.mc_s);
                ("total_s", Json.Float t.Flow.total_s);
                ("wbga_speedup", speedup);
              ])
          runs
      end

(* Corner-proof prescreen A/B: re-run the same flow with the corner-interval
   prescreen armed against a wide spec window (gain >= 60 dB, which parts of
   the front provably cannot reach over the 0.5-sigma box), so the BENCH
   document records the Monte Carlo cut next to the no-prescreen reference.
   The prescreen run's totals must come in strictly below the reference —
   the perf gate's sim_counts are the reference run's, which is why this
   runs as its own section instead of replacing the main flow. *)
let prescreen_ab ctx =
  let config = ctx.Experiments.config in
  let ps =
    {
      Config.enabled = true;
      k_sigma = 0.5;
      min_gain_db = 60.;
      min_pm_deg = 0.;
      pass_budget_frac = 1.;
    }
  in
  print_string
    (Report.section "Monte Carlo prescreen: corner proofs before sampling");
  let flow = Flow.run { config with Config.prescreen = ps } in
  let base = ctx.Experiments.flow in
  let base_total = Flow.total_sims base.Flow.counts in
  let ps_total = Flow.total_sims flow.Flow.counts in
  let pc =
    match flow.Flow.prescreen with
    | Some p -> p
    | None -> assert false (* prescreen was enabled *)
  in
  let perf_tables_identical =
    Perf_model.points base.Flow.perf_model
    = Perf_model.points flow.Flow.perf_model
  in
  Printf.printf
    "  window gain >= %g dB at k = %g\n\
    \  analysed %d front points: %d provably-fail (MC skipped), %d \
     provably-pass, %d undecided\n\
    \  sim_counts.total %d vs %d without prescreen (%d MC samples saved)\n\
    \  variation points %d vs %d; perf table identical: %b\n\
     %!"
    ps.Config.min_gain_db ps.Config.k_sigma pc.Flow.analysed
    pc.Flow.fail_skipped pc.Flow.provably_passed pc.Flow.undecided ps_total
    base_total (base_total - ps_total)
    (Array.length flow.Flow.var_points)
    (Array.length base.Flow.var_points)
    perf_tables_identical;
  Json.Obj
    [
      ("k_sigma", Json.Float ps.Config.k_sigma);
      ("min_gain_db", Json.Float ps.Config.min_gain_db);
      ("min_pm_deg", Json.Float ps.Config.min_pm_deg);
      ("analysed", Json.Int pc.Flow.analysed);
      ("fail_skipped", Json.Int pc.Flow.fail_skipped);
      ("provably_passed", Json.Int pc.Flow.provably_passed);
      ("undecided", Json.Int pc.Flow.undecided);
      ("sim_counts_total", Json.Int ps_total);
      ("no_prescreen_total", Json.Int base_total);
      ("mc_sims", Json.Int flow.Flow.counts.Flow.mc_sims);
      ("no_prescreen_mc_sims", Json.Int base.Flow.counts.Flow.mc_sims);
      ("var_points", Json.Int (Array.length flow.Flow.var_points));
      ( "no_prescreen_var_points",
        Json.Int (Array.length base.Flow.var_points) );
      ("perf_table_identical", Json.Bool perf_tables_identical);
    ]

let write_bench_json ?(sweep = []) ?prescreen ctx ~path =
  let flow = ctx.Experiments.flow in
  let t = flow.Flow.timings in
  let c = flow.Flow.counts in
  let snap = Metrics.snapshot () in
  (* the shared field list (Sink.histogram_fields), so the BENCH schema and
     the JSONL sink schema cannot drift apart *)
  let histogram_json (s : Yield_obs.Histogram.summary) =
    Json.Obj (Yield_obs.Sink.histogram_fields s)
  in
  let json =
    Json.Obj
      ([
        ("scale", Json.String (Config.scale_name ctx.Experiments.config));
        ("jobs", Json.Int ctx.Experiments.config.Config.jobs);
        ( "stage_s",
          Json.Obj
            [
              ("optimisation", Json.Float t.Flow.optimisation_s);
              ("mc", Json.Float t.Flow.mc_s);
              ("total", Json.Float t.Flow.total_s);
            ] );
        ( "sim_counts",
          Json.Obj
            [
              ("optimisation", Json.Int c.Flow.optimisation_sims);
              ("front", Json.Int c.Flow.front_sims);
              ("mc", Json.Int c.Flow.mc_sims);
              ("total", Json.Int (Flow.total_sims c));
            ] );
        ( "counters",
          Json.Obj
            (List.map (fun (n, v) -> (n, Json.Int v)) snap.Metrics.counters) );
        ( "histograms",
          Json.Obj
            (List.map
               (fun (n, s) -> (n, histogram_json s))
               snap.Metrics.histograms) );
      ]
      @ (if sweep = [] then [] else [ ("jobs_sweep", Json.List sweep) ])
      @
      match prescreen with
      | None -> []
      | Some section -> [ ("prescreen", section) ])
  in
  Yield_obs.Sink.write_file ~path (Json.to_string json ^ "\n");
  Printf.printf "wrote %s\n%!" path;
  json

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one per primitive cost of Table 5's
   time-accounting story. *)

let time_benchmarks ctx =
  let open Bechamel in
  let design =
    match Flow.design_for_spec ctx.Experiments.flow ctx.Experiments.spec with
    | Ok plan -> plan.Yield_target.proposal.Macromodel.design
    | Error _ -> (Perf_model.points ctx.Experiments.flow.Flow.perf_model).(0)
  in
  let params = Ota.params_of_array design.Perf_model.params in
  let model = ctx.Experiments.flow.Flow.macromodel in
  let variation = ctx.Experiments.config.Config.variation in
  let mc_rng = Rng.create 5 in
  let session = Tb.session params in
  (* one Monte Carlo sample on the default OTA with a fixed draw: DC, the
     bracket-limited sweep and extraction, no sampling *)
  let ota_session = Tb.session Ota.default_params in
  let ota_models =
    Variation.overrides variation (Rng.create 5) (Tb.session_circuit ota_session)
  in
  (* the dense real kernel every Newton iteration runs: factor + solve *)
  let sys = Linsys.real 12 in
  for i = 0 to 11 do
    for j = 0 to 11 do
      sys.Linsys.add i j (if i = j then 25. else sin (float_of_int ((7 * i) + j)))
    done
  done;
  let vec = Array.init 12 float_of_int in
  let tests =
    [
      Test.make ~name:"transistor-evaluation (DC+AC)"
        (Staged.stage (fun () -> ignore (Tb.evaluate params)));
      Test.make ~name:"transistor MC sample (perturb+DC+AC)"
        (Staged.stage (fun () ->
             ignore (Tb.evaluate_in_session session ~spec:variation ~rng:mc_rng)));
      Test.make ~name:"behavioural-model query (tables only)"
        (Staged.stage (fun () ->
             ignore
               (Macromodel.propose model
                  ~gain_db:ctx.Experiments.spec.Yield_target.min_gain_db
                  ~pm_deg:ctx.Experiments.spec.Yield_target.min_pm_deg)));
      Test.make ~name:"behavioural filter evaluation"
        (Staged.stage (fun () ->
             ignore
               (Filter.evaluate
                  (Macromodel.amp_of_design design)
                  Filter.default_spec
                  { Filter.c1 = 30e-12; c2 = 15e-12; c3 = 0.3e-12 })));
      Test.make ~name:"lu-solve 12x12"
        (Staged.stage (fun () -> ignore (sys.Linsys.solve vec)));
      Test.make ~name:"MC sample perf_in_session (default OTA)"
        (Staged.stage (fun () -> ignore (Tb.perf_in_session ota_session ota_models)));
    ]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| "run" |]
  in
  print_string (Report.section "Timing of the primitives (Bechamel)");
  List.iter
    (fun test ->
      List.iter
        (fun elt ->
          let result = Benchmark.run cfg instances elt in
          let estimate = Analyze.one ols Toolkit.Instance.monotonic_clock result in
          match Analyze.OLS.estimates estimate with
          | Some (t :: _) ->
              Printf.printf "%-42s %12.3f us/run\n" (Test.Elt.name elt)
                (t /. 1e3)
          | Some [] | None ->
              Printf.printf "%-42s (no estimate)\n" (Test.Elt.name elt))
        (Test.elements test))
    tests

(* ------------------------------------------------------------------ *)
(* Ablation benches for the design choices DESIGN.md calls out. *)

let ablation_interpolation ctx =
  (* cubic ("3E", the paper) vs linear ("1E") table models: reproduce the
     models from the same flow data and compare lookup error on the
     Table 3 spec *)
  print_string (Report.section "Ablation: table interpolation degree");
  let flow = ctx.Experiments.flow in
  let points = Perf_model.points flow.Flow.perf_model in
  (* raw (guard:false) lookups so the interpolation degree is what is being
     measured, not the family-snap guard *)
  let spec = ctx.Experiments.spec in
  List.iter
    (fun control ->
      let perf = Perf_model.create ~control points in
      match
        Perf_model.lookup ~guard:false perf
          ~gain_db:spec.Yield_target.min_gain_db
          ~pm_deg:spec.Yield_target.min_pm_deg
      with
      | exception _ -> Printf.printf "%-4s lookup failed\n" control
      | d when Array.exists (fun v -> v <= 0.) d.Perf_model.params ->
          (* spline overshoot can leave the physical parameter range
             entirely — itself a result worth reporting *)
          Printf.printf
            "%-4s interpolation produced non-physical parameters \
             (spline overshoot)\n"
            control
      | d -> begin
          let params = Ota.params_of_array d.Perf_model.params in
          match
            Tb.evaluate ~conditions:ctx.Experiments.config.Config.conditions
              params
          with
          | None -> Printf.printf "%-4s transistor failed\n" control
          | Some perf_t ->
              Printf.printf
                "%-4s claim gain %6.2f / pm %6.2f  realised %6.2f / %6.2f  \
                 (err %.2f%% / %.2f%%)\n"
                control d.Perf_model.gain_db d.Perf_model.pm_deg
                perf_t.Tb.gain_db perf_t.Tb.phase_margin_deg
                (100. *. Float.abs (perf_t.Tb.gain_db -. d.Perf_model.gain_db)
                /. perf_t.Tb.gain_db)
                (100.
                *. Float.abs
                     (perf_t.Tb.phase_margin_deg -. d.Perf_model.pm_deg)
                /. perf_t.Tb.phase_margin_deg)
        end)
    [ "3E"; "2E"; "1E"; "ME" ]

let ablation_wbga_vs_nsga2 ctx =
  (* front quality (2-D hypervolume) of the paper's WBGA vs NSGA-II at the
     same evaluation budget *)
  print_string (Report.section "Ablation: WBGA (paper) vs NSGA-II front quality");
  let conditions = ctx.Experiments.config.Config.conditions in
  let evaluate params =
    match Tb.evaluate ~conditions (Ota.params_of_array params) with
    | Some p when Tb.feasible conditions p -> Some (Tb.objectives p)
    | Some _ | None -> None
  in
  let budget_pop, budget_gen =
    match Config.scale_name ctx.Experiments.config with
    | "paper-scale" -> (60, 50)
    | _ -> (24, 15)
  in
  let ref_point = (30., 0.) in
  let wbga =
    Wbga.run
      ~config:{ Ga.default_config with Ga.population_size = budget_pop; generations = budget_gen }
      ~param_ranges:Ota.param_ranges
      ~objectives:
        [| { Wbga.name = "gain"; maximise = true }; { Wbga.name = "pm"; maximise = true } |]
      ~rng:(Rng.create 7) ~evaluate ()
  in
  let wbga_points = Array.map (fun (e : Wbga.entry) -> e.Wbga.objectives) wbga.Wbga.archive in
  let nsga =
    Nsga2.run
      ~config:
        { Nsga2.default_config with Nsga2.population_size = budget_pop; generations = budget_gen }
      ~param_ranges:Ota.param_ranges ~maximise:[| true; true |]
      ~rng:(Rng.create 7) ~evaluate ()
  in
  let nsga_points = Array.map (fun (e : Nsga2.entry) -> e.Nsga2.objectives) nsga.Nsga2.archive in
  Printf.printf
    "budget %d x %d evaluations\n\
     WBGA:    archive %5d, front %4d, hypervolume %10.1f\n\
     NSGA-II: archive %5d, front %4d, hypervolume %10.1f\n"
    budget_pop budget_gen (Array.length wbga_points)
    (Array.length wbga.Wbga.front)
    (Pareto.hypervolume_2d ~ref_point wbga_points)
    (Array.length nsga_points)
    (Array.length nsga.Nsga2.front)
    (Pareto.hypervolume_2d ~ref_point nsga_points)

let ablation_variation_scaling ctx =
  (* how the Table 2 spreads scale with the process-variation magnitude *)
  print_string (Report.section "Ablation: variation-model scaling");
  let design =
    match Flow.design_for_spec ctx.Experiments.flow ctx.Experiments.spec with
    | Ok plan -> plan.Yield_target.proposal.Macromodel.design
    | Error _ -> (Perf_model.points ctx.Experiments.flow.Flow.perf_model).(0)
  in
  let params = Ota.params_of_array design.Perf_model.params in
  let conditions = ctx.Experiments.config.Config.conditions in
  let nominal = Tb.evaluate ~conditions params in
  match nominal with
  | None -> print_endline "nominal evaluation failed"
  | Some nom ->
      let session = Tb.session ~conditions params in
      let samples =
        match Config.scale_name ctx.Experiments.config with
        | "paper-scale" -> 200
        | _ -> 40
      in
      List.iter
        (fun k ->
          let spec = Variation.scale_spec k Variation.default_spec in
          let rng = Rng.create 13 in
          let results =
            Yield_process.Montecarlo.run ~samples ~rng (fun r ->
                Tb.evaluate_in_session session ~spec ~rng:r)
          in
          let gains = Array.map (fun r -> r.Tb.gain_db) results in
          let pms = Array.map (fun r -> r.Tb.phase_margin_deg) results in
          Printf.printf "sigma x%-4.2g  dGain %5.2f %%   dPM %5.2f %%\n" k
            (Yield_process.Montecarlo.spread_pct gains ~nominal:nom.Tb.gain_db)
            (Yield_process.Montecarlo.spread_pct pms
               ~nominal:nom.Tb.phase_margin_deg))
        [ 0.5; 1.0; 2.0 ]

(* Extended characterisation of the chosen design: the "higher order
   effects" the paper notes could be incorporated — time-domain, rejection
   and noise figures from the same substrate. *)
let extended_characterisation ctx =
  print_string
    (Report.section "Extended characterisation of the Table 3 design");
  match Flow.design_for_spec ctx.Experiments.flow ctx.Experiments.spec with
  | Error e -> print_endline ("no design: " ^ e)
  | Ok plan ->
      let design = plan.Yield_target.proposal.Macromodel.design in
      let params = Ota.params_of_array design.Perf_model.params in
      (match Tb.step_perf params with
      | Some s ->
          Printf.printf
            "step response: slew %.2f V/us, 1%% settling %s, overshoot %.1f %%\n"
            s.Tb.slew_v_per_us
            (match s.Tb.settling_1pct_s with
            | Some t -> Printf.sprintf "%ss" (Report.si t)
            | None -> "not reached")
            s.Tb.overshoot_pct
      | None -> print_endline "step response failed");
      (match Tb.cmrr_db params with
      | Some v -> Printf.printf "CMRR %.1f dB\n" v
      | None -> print_endline "CMRR failed");
      (match Tb.psrr_db params with
      | Some v -> Printf.printf "PSRR %.1f dB\n" v
      | None -> print_endline "PSRR failed");
      (match Tb.input_referred_noise params with
      | Some (_, rms) ->
          Printf.printf "input-referred noise, f_lo to f_u: %.1f uVrms\n"
            (rms *. 1e6)
      | None -> print_endline "noise analysis failed");
      (* which process component drives the gain spread *)
      let spec = ctx.Experiments.config.Config.variation in
      let eval draw =
        Option.map
          (fun p -> p.Tb.gain_db)
          (Tb.evaluate_with_draw
             ~conditions:ctx.Experiments.config.Config.conditions ~spec ~draw
             params)
      in
      (match Yield_process.Sensitivity.analyse ~spec ~eval with
      | Error e -> print_endline ("sensitivity failed: " ^ e)
      | Ok results ->
          print_endline "gain variance decomposition (global components):";
          List.iter
            (fun (r : Yield_process.Sensitivity.result) ->
              Printf.printf "  %-7s %5.1f %%  (%+.4f dB/sigma)\n"
                (Yield_process.Sensitivity.to_string r.Yield_process.Sensitivity.component)
                (100. *. r.Yield_process.Sensitivity.variance_share)
                r.Yield_process.Sensitivity.per_sigma)
            results)

(* LHS vs plain Monte Carlo: spread of the dGain estimate across repeated
   small runs. *)
let ablation_lhs ctx =
  print_string (Report.section "Ablation: Latin hypercube vs plain Monte Carlo");
  let design =
    match Flow.design_for_spec ctx.Experiments.flow ctx.Experiments.spec with
    | Ok plan -> plan.Yield_target.proposal.Macromodel.design
    | Error _ -> (Perf_model.points ctx.Experiments.flow.Flow.perf_model).(0)
  in
  let params = Ota.params_of_array design.Perf_model.params in
  let conditions = ctx.Experiments.config.Config.conditions in
  let spec = ctx.Experiments.config.Config.variation in
  match Tb.evaluate ~conditions params with
  | None -> print_endline "nominal evaluation failed"
  | Some nominal ->
      let session = Tb.session ~conditions params in
      let circuit = Tb.session_circuit session in
      let n = 24 in
      let repeats = match Config.scale_name ctx.Experiments.config with
        | "paper-scale" -> 12
        | _ -> 5
      in
      let estimate_mc seed =
        let rng = Rng.create seed in
        let rs =
          Yield_process.Montecarlo.run ~samples:n ~rng (fun r ->
              Tb.evaluate_in_session session ~spec ~rng:r)
        in
        let gains = Array.map (fun r -> r.Tb.gain_db) rs in
        Yield_process.Montecarlo.spread_pct gains ~nominal:nominal.Tb.gain_db
      in
      let estimate_lhs seed =
        let rng = Rng.create seed in
        let normals =
          Yield_stats.Lhs.sample_normal rng ~n ~dims:Variation.global_dims
        in
        let gains =
          Array.to_list normals
          |> List.filter_map (fun z ->
                 let draw = Variation.global_draw_of_normals spec z in
                 let models =
                   Variation.overrides_with_draw spec draw (Rng.split rng)
                     circuit
                 in
                 match Tb.bode_in_session session models with
                 | None -> None
                 | Some b ->
                     Option.map
                       (fun p -> p.Tb.gain_db)
                       (Tb.perf_of_bode conditions b))
          |> Array.of_list
        in
        Yield_process.Montecarlo.spread_pct gains ~nominal:nominal.Tb.gain_db
      in
      let spread f =
        let xs = Array.init repeats (fun i -> f (1000 + i)) in
        Yield_stats.Summary.stddev (Yield_stats.Summary.of_array xs)
      in
      let mc = spread estimate_mc and lhs = spread estimate_lhs in
      Printf.printf
        "sd of the dGain estimate over %d repeated %d-sample runs:\n\
         plain MC %.4f %%   LHS (stratified globals) %.4f %%\n"
        repeats n mc lhs

(* Corner analysis as a cheap alternative to the Monte Carlo variation
   model: 5 deterministic corner evaluations vs 200 statistical samples. *)
let ablation_corners_vs_mc ctx =
  print_string (Report.section "Ablation: corner envelope vs Monte Carlo spread");
  let design =
    match Flow.design_for_spec ctx.Experiments.flow ctx.Experiments.spec with
    | Ok plan -> plan.Yield_target.proposal.Macromodel.design
    | Error _ -> (Perf_model.points ctx.Experiments.flow.Flow.perf_model).(0)
  in
  let params = Ota.params_of_array design.Perf_model.params in
  let conditions = ctx.Experiments.config.Config.conditions in
  let spec = ctx.Experiments.config.Config.variation in
  match Tb.evaluate ~conditions params with
  | None -> print_endline "nominal evaluation failed"
  | Some nominal -> begin
      (* corner envelope: worst deviation across the 3-sigma corners *)
      let corner_dev =
        List.filter_map
          (fun corner ->
            let tech = Yield_process.Corner.apply spec corner conditions.Tb.tech in
            let conditions = { conditions with Tb.tech } in
            Option.map
              (fun (p : Tb.perf) ->
                Float.abs (p.Tb.gain_db -. nominal.Tb.gain_db))
              (Tb.evaluate ~conditions params))
          Yield_process.Corner.all
        |> List.fold_left Float.max 0.
      in
      let corner_pct = 100. *. corner_dev /. nominal.Tb.gain_db in
      (* Monte Carlo 3-sigma spread *)
      let samples =
        match Config.scale_name ctx.Experiments.config with
        | "paper-scale" -> 200
        | _ -> 40
      in
      let rng = Rng.create 37 in
      let session = Tb.session ~conditions params in
      let rs =
        Yield_process.Montecarlo.run ~samples ~rng (fun r ->
            Tb.evaluate_in_session session ~spec ~rng:r)
      in
      let gains = Array.map (fun r -> r.Tb.gain_db) rs in
      let mc_pct =
        Yield_process.Montecarlo.spread_pct gains ~nominal:nominal.Tb.gain_db
      in
      Printf.printf
        "dGain envelope: corners (5 simulations) %.2f %%, Monte Carlo (%d \
         simulations) %.2f %%\n"
        corner_pct samples mc_pct;
      print_endline
        "corners only shift the corner-defined parameters (vth, kp) and see\n\
         neither channel-length-modulation spread nor mismatch — and this\n\
         OTA's gain variance is lambda-dominated (see the sensitivity\n\
         decomposition above) — which is why the paper's variation model is\n\
         statistical rather than corner-based."
    end

(* Model accuracy across the whole front: sweep the specification through
   the model's range, design by table lookup, verify each design with a
   transistor-level Monte Carlo run.  This generalises Table 4 from one
   point to a curve. *)
let model_accuracy_sweep ctx =
  print_string
    (Report.section "Model accuracy across the specification range");
  let flow = ctx.Experiments.flow in
  let glo, ghi = Perf_model.gain_range flow.Flow.perf_model in
  let vlo, vhi = Var_model.gain_domain flow.Flow.var_model in
  let lo = Float.max glo vlo and hi = Float.min ghi vhi in
  let samples =
    match Config.scale_name ctx.Experiments.config with
    | "paper-scale" -> 100
    | _ -> 24
  in
  let fractions = [ 0.15; 0.35; 0.55; 0.75; 0.9 ] in
  Printf.printf
    "spec sweep over gain %.1f..%.1f dB; %d-sample MC verification each\n" lo hi
    samples;
  List.iter
    (fun f ->
      let gain = lo +. (f *. (hi -. lo)) in
      (* the PM requirement follows the front at the inflated gain (first
         design above it), backed off 3 deg so the inflated request stays
         feasible *)
      let points = Perf_model.points flow.Flow.perf_model in
      let dgain =
        try Var_model.dgain_at flow.Flow.var_model ~gain_db:gain with _ -> 1.
      in
      let inflated = gain *. (1. +. (dgain /. 100.)) in
      let above =
        Array.fold_left
          (fun best (p : Perf_model.point) ->
            if p.Perf_model.gain_db >= inflated then
              match best with
              | Some (b : Perf_model.point) when b.Perf_model.gain_db <= p.Perf_model.gain_db -> best
              | _ -> Some p
            else best)
          None points
      in
      let reference =
        match above with Some p -> p | None -> points.(Array.length points - 1)
      in
      let spec =
        {
          Yield_target.min_gain_db = gain;
          min_pm_deg = reference.Perf_model.pm_deg -. 3.;
        }
      in
      match Flow.design_for_spec flow spec with
      | Error e -> Printf.printf "  gain>%.1f: %s\n" gain e
      | Ok plan -> begin
          let design = plan.Yield_target.proposal.Macromodel.design in
          let params = Ota.params_of_array design.Perf_model.params in
          match Flow.verify_design flow ~samples ~spec params with
          | Error e -> Printf.printf "  gain>%.1f: %s\n" gain e
          | Ok v ->
              let claim_err =
                100.
                *. Float.abs (v.Flow.nominal.Tb.gain_db -. design.Perf_model.gain_db)
                /. v.Flow.nominal.Tb.gain_db
              in
              Printf.printf
                "  spec (%.1f dB, %.1f deg): claim %.2f dB, realised %.2f dB \
                 (err %.2f %%), MC yield %.1f %%\n"
                spec.Yield_target.min_gain_db spec.Yield_target.min_pm_deg
                design.Perf_model.gain_db v.Flow.nominal.Tb.gain_db claim_err
                (100. *. v.Flow.yield.Yield_process.Montecarlo.yield)
        end)
    fractions

(* Three-objective variant: add power to the paper's two objectives and
   extract the 3-D non-dominated set (the general-arity Pareto path). *)
let ablation_three_objectives ctx =
  print_string (Report.section "Ablation: adding power as a third objective");
  let conditions = ctx.Experiments.config.Config.conditions in
  let evaluate3 params_arr =
    let params = Ota.params_of_array params_arr in
    let circuit, _ = Tb.build ~conditions params in
    match Yield_spice.Dcop.solve circuit with
    | Error _ -> None
    | Ok op -> begin
        let b =
          Yield_spice.Ac.transfer_by_name circuit op ~out:"out"
            ~freqs:(Yield_circuits.Testbench.freqs_of conditions)
        in
        match Tb.perf_of_bode conditions b with
        | Some p when Tb.feasible conditions p ->
            let supply_a =
              Float.abs (Yield_spice.Dcop.branch_current op "VDD")
            in
            let power_mw =
              conditions.Tb.tech.Yield_process.Tech.vdd *. supply_a *. 1e3
            in
            Some [| p.Tb.gain_db; p.Tb.phase_margin_deg; -.power_mw |]
        | Some _ | None -> None
      end
  in
  let pop, gens =
    match Config.scale_name ctx.Experiments.config with
    | "paper-scale" -> (40, 30)
    | _ -> (16, 10)
  in
  let result =
    Wbga.run
      ~config:{ Ga.default_config with Ga.population_size = pop; generations = gens }
      ~param_ranges:Ota.param_ranges
      ~objectives:
        [|
          { Wbga.name = "gain"; maximise = true };
          { Wbga.name = "pm"; maximise = true };
          { Wbga.name = "neg_power"; maximise = true };
        |]
      ~rng:(Rng.create 29) ~evaluate:evaluate3 ()
  in
  Printf.printf "%d evaluations, 3-D front %d points\n" result.Wbga.evaluations
    (Array.length result.Wbga.front);
  let n = Array.length result.Wbga.front in
  Array.iteri
    (fun i (e : Wbga.entry) ->
      if i mod (Stdlib.max 1 (n / 8)) = 0 || i = n - 1 then
        Printf.printf "  gain %6.2f dB  pm %6.2f deg  power %6.3f mW\n"
          e.Wbga.objectives.(0) e.Wbga.objectives.(1)
          (-.e.Wbga.objectives.(2)))
    result.Wbga.front

(* The flow is not OTA-specific: run the same WBGA -> Pareto -> Monte Carlo
   pipeline on the two-stage Miller OTA. *)
let generalisation_miller ctx =
  print_string
    (Report.section "Generalisation: the flow on a two-stage Miller OTA");
  let module Miller = Yield_circuits.Miller in
  let module Mtb = Yield_circuits.Miller_testbench in
  let module Gtb = Yield_circuits.Testbench in
  (* the Miller stage's unity gain is gm1/(2 pi Cc) ~ 7 MHz, so the
     bandwidth floor moves accordingly *)
  let conditions = { Gtb.default_conditions with Gtb.min_unity_gain_hz = 5e6 } in
  let evaluate params =
    match Mtb.evaluate ~conditions (Miller.params_of_array params) with
    | Some p when Gtb.feasible conditions p -> Some (Gtb.objectives p)
    | Some _ | None -> None
  in
  let pop, gens =
    match Config.scale_name ctx.Experiments.config with
    | "paper-scale" -> (60, 40)
    | _ -> (24, 12)
  in
  let result =
    Wbga.run
      ~config:{ Ga.default_config with Ga.population_size = pop; generations = gens }
      ~param_ranges:Miller.param_ranges
      ~objectives:
        [| { Wbga.name = "gain"; maximise = true }; { Wbga.name = "pm"; maximise = true } |]
      ~rng:(Rng.create 17) ~evaluate ()
  in
  Printf.printf "%d evaluations, %d infeasible, front %d\n"
    result.Wbga.evaluations result.Wbga.failures (Array.length result.Wbga.front);
  let n = Array.length result.Wbga.front in
  Array.iteri
    (fun i (e : Wbga.entry) ->
      if i mod (Stdlib.max 1 (n / 10)) = 0 || i = n - 1 then
        Printf.printf "  gain %6.2f dB   pm %6.2f deg\n" e.Wbga.objectives.(0)
          e.Wbga.objectives.(1))
    result.Wbga.front;
  (* variation spreads on a handful of front designs *)
  if n > 0 then begin
    let samples =
      match Config.scale_name ctx.Experiments.config with
      | "paper-scale" -> 60
      | _ -> 20
    in
    let rng = Rng.create 23 in
    let picks = [ 0; n / 2; n - 1 ] |> List.sort_uniq compare in
    List.iter
      (fun i ->
        let e = result.Wbga.front.(i) in
        let params = Miller.params_of_array e.Wbga.params in
        let session = Mtb.session ~conditions params in
        let rs =
          Yield_process.Montecarlo.run ~samples ~rng (fun r ->
              Mtb.evaluate_in_session session
                ~spec:ctx.Experiments.config.Config.variation ~rng:r)
        in
        if Array.length rs > 4 then begin
          let gains = Array.map (fun r -> r.Gtb.gain_db) rs in
          let pms = Array.map (fun r -> r.Gtb.phase_margin_deg) rs in
          Printf.printf
            "  front #%d: gain %.2f dB (dGain %.2f %%), pm %.2f deg (dPM %.2f %%)\n"
            (i + 1) e.Wbga.objectives.(0)
            (Yield_process.Montecarlo.spread_pct gains
               ~nominal:e.Wbga.objectives.(0))
            e.Wbga.objectives.(1)
            (Yield_process.Montecarlo.spread_pct pms
               ~nominal:e.Wbga.objectives.(1))
        end)
      picks
  end

(* ------------------------------------------------------------------ *)
(* The perf-regression gate (README.md §Telemetry documents the baseline
   refresh procedure):

     bench --write-baseline PATH   distil this run into a baseline file
     bench --check BASELINE        diff this run against a baseline;
                                   exit 1 on any finding
     bench --bench BENCH.json ...  gate an existing BENCH_flow.json instead
                                   of running the flow (offline: the same
                                   run can be diffed against several
                                   baselines without timing noise between
                                   them)

   Running the flow for the gate is flow-only (the ablation/experiment
   suite is not part of the gated surface). *)

module Perf_gate = Yield_core.Perf_gate

type cli = {
  check : string option;
  write_baseline : string option;
  bench_file : string option;
}

let usage () =
  prerr_endline
    "usage: bench [--bench BENCH.json] [--check BASELINE] [--write-baseline \
     PATH]";
  exit 2

let parse_cli () =
  let rec go acc = function
    | [] -> acc
    | "--check" :: path :: rest -> go { acc with check = Some path } rest
    | "--write-baseline" :: path :: rest ->
        go { acc with write_baseline = Some path } rest
    | "--bench" :: path :: rest -> go { acc with bench_file = Some path } rest
    | ("--check" | "--write-baseline" | "--bench") :: [] -> usage ()
    | arg :: _ ->
        Printf.eprintf "bench: unknown argument %s\n" arg;
        usage ()
  in
  let cli =
    go
      { check = None; write_baseline = None; bench_file = None }
      (List.tl (Array.to_list Sys.argv))
  in
  if cli.bench_file <> None && cli.check = None && cli.write_baseline = None
  then usage ();
  cli

let run_gate cli bench_json =
  Option.iter
    (fun path ->
      Yield_obs.Sink.write_file ~path
        (Json.to_string (Perf_gate.baseline_of_bench bench_json) ^ "\n");
      Printf.printf "wrote baseline %s\n%!" path)
    cli.write_baseline;
  Option.iter
    (fun path ->
      let baseline =
        Json.parse (In_channel.with_open_text path In_channel.input_all)
      in
      match Perf_gate.check ~baseline ~bench:bench_json with
      | [] -> Printf.printf "perf gate: OK against %s\n%!" path
      | findings ->
          Printf.eprintf "perf gate: %d finding(s) against %s\n"
            (List.length findings) path;
          List.iter
            (fun f -> Printf.eprintf "  %s\n" (Perf_gate.to_string f))
            findings;
          Printf.eprintf "%!";
          exit 1)
    cli.check

let () =
  let cli = parse_cli () in
  (match cli.bench_file with
  | None -> ()
  | Some path ->
      (* offline gate: no flow run, just diff the recorded document *)
      let bench_json =
        Json.parse (In_channel.with_open_text path In_channel.input_all)
      in
      run_gate cli bench_json;
      Printf.printf "gated %s\n%!" path;
      exit 0);
  let config = Config.of_env () in
  Printf.printf
    "yieldlab benchmark harness — %s (set YIELDLAB_FAST=1 for a smoke run)\n%!"
    (Config.scale_name config);
  let sweep = jobs_sweep config in
  let ctx = Experiments.make_context ~log:(Printf.printf "%s\n%!") config in
  let prescreen = prescreen_ab ctx in
  let bench_json =
    write_bench_json ~sweep ~prescreen ctx ~path:"BENCH_flow.json"
  in
  run_gate cli bench_json;
  if cli.check <> None || cli.write_baseline <> None then begin
    print_string (Report.section "done (perf gate)");
    exit 0
  end;
  (* CI uses this to produce the BENCH_flow.json artifact without paying for
     the full experiment/ablation suite *)
  (match Sys.getenv_opt "YIELDLAB_BENCH_FLOW_ONLY" with
  | Some v when v <> "" && v <> "0" ->
      print_string (Report.section "done (flow only)");
      exit 0
  | Some _ | None -> ());
  List.iter
    (fun (name, f) ->
      Printf.printf "%!";
      ignore name;
      print_string (f ctx);
      Printf.printf "%!")
    Experiments.all;
  extended_characterisation ctx;
  time_benchmarks ctx;
  ablation_interpolation ctx;
  ablation_wbga_vs_nsga2 ctx;
  ablation_variation_scaling ctx;
  ablation_lhs ctx;
  ablation_corners_vs_mc ctx;
  model_accuracy_sweep ctx;
  ablation_three_objectives ctx;
  generalisation_miller ctx;
  print_string (Report.section "done")
