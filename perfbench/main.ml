(* The repository benchmark.  One command, three workloads:

     main.exe --workload flow-paper|flow-wbga|serve-mixed --seed N
              --seconds S --trace 0|1

   --trace 0 measures the end-to-end metrics with tracing off; --trace 1
   runs the traced per-layer replay.  Every metric goes to stderr by name
   with its unit; the last stdout line is one JSON object
   {"correct", "attempted", "failed", "metrics"}.  A failed correctness
   gate sets "correct": false and the exit code to 1.  See README.md. *)

(* runtime-start probe: the parent spawns this executable and reads the
   wall clock it reaches once every module initialiser has run *)
let () =
  if Array.length Sys.argv = 2 && Sys.argv.(1) = "--startup-probe" then begin
    Printf.printf "%.9f\n" (Unix.gettimeofday ());
    exit 0
  end

open Common
module Config = Yield_core.Config
module Flow = Yield_core.Flow
module Wbga = Yield_ga.Wbga
module Metrics = Yield_obs.Metrics
module Histogram = Yield_obs.Histogram
module Addr = Yield_serve.Addr

type workload = Flow_paper | Flow_wbga | Serve_mixed

let workload_of_string = function
  | "flow-paper" -> Some Flow_paper
  | "flow-wbga" -> Some Flow_wbga
  | "serve-mixed" -> Some Serve_mixed
  | _ -> None

let config_of = function
  | Flow_paper | Serve_mixed -> Flows.paper
  | Flow_wbga -> Flows.wbga_heavy

(* all scratch output lives under the checkout, one directory per process *)
let work_dir = Filename.concat ".perfbench" (string_of_int (Unix.getpid ()))

let sub name = Filename.concat work_dir name

let startup_probes = 25

let server_starts = 9

(* a flow workload takes flow_s as a median over at least this many
   Flow.run calls, which also gives the run-to-run table comparison;
   serve-mixed runs one flow, for its tables, before it serves *)
let min_flows = 2

(* a flow workload turns --seconds into a fixed number of flows, using one
   flow's serial wall clock on the reference box, so the work a run does
   (and the heap it peaks at) does not depend on how fast the box is at
   the moment *)
let flows_for workload ~seconds =
  let fit nominal_flow_s =
    Stdlib.max min_flows (int_of_float (Float.round (seconds /. nominal_flow_s)))
  in
  match workload with Serve_mixed -> 1 | Flow_paper -> fit 14.5 | Flow_wbga -> fit 6.5

(* the serve phase of a flow workload: eleven complete 0.5 s windows *)
let flow_serve_s = 6.

(* ---------- the run-wide operation ledger ---------- *)

let attempted = ref 0

let failed = ref 0

let count ~ops ~bad =
  attempted := !attempted + ops;
  failed := !failed + bad

let count_flow (r : Flows.run) =
  count ~ops:(Flow.total_sims r.Flows.flow.Flow.counts) ~bad:(r.Flows.mc_failed + r.Flows.degraded)

let count_quality (q : Flows.quality) = count ~ops:q.Flows.sims ~bad:q.Flows.failed

let count_serve (r : Serve_load.result) =
  count ~ops:r.Serve_load.sent ~bad:(r.Serve_load.sent - r.Serve_load.ok)

(* ---------- shared stages ---------- *)

(* process spawn to the end of module initialisation, median of
   [startup_probes] spawns of this executable, in reference seconds (a
   host-speed probe follows every spawn) *)
let runtime_start_s () =
  let p = probes () in
  let times =
    Array.init startup_probes (fun _ ->
        let t0 = Unix.gettimeofday () in
        let ic =
          Unix.open_process_args_in Sys.executable_name
            [| Sys.executable_name; "--startup-probe" |]
        in
        let line = In_channel.input_all ic in
        ignore (Unix.close_process_in ic);
        let t = float_of_string (String.trim line) -. t0 in
        probe p;
        t)
  in
  median times *. probe_ref_s /. mean_probe_s p

let check_identical name (reference : string list) (other : string list) =
  check name (reference = other)
    (Printf.sprintf "%d table files, %d bytes" (List.length reference)
       (List.fold_left (fun n s -> n + String.length s) 0 reference))

let socket () = Addr.Unix_sock (sub "serve.sock")

(* serve [tables_dir] for [duration_s]: timed server starts, the closed
   loop, the answer cross-check and a drained shutdown *)
let serve_phase ~seed ~tables_dir ~duration_s =
  let snap = Serve_load.load_snapshot ~dir:tables_dir in
  let reqs = Serve_load.requests ~seed snap in
  let server, start_s, codes =
    Serve_load.start_timed ~starts:server_starts ~addr:(socket ()) ~tables_dir
  in
  let (r, kept), codes =
    match Serve_load.drive server ~seed ~reqs ~duration_s with
    | result -> (result, Serve_load.stop server :: codes)
    | exception e ->
        ignore (Serve_load.stop server);
        raise e
  in
  check "server drains with exit 0"
    (List.for_all (( = ) 0) codes)
    (Printf.sprintf "%d starts" (List.length codes));
  Serve_load.check_answers snap reqs kept;
  count_serve r;
  log
    "serve: start-to-ready %.2f ms; %d sent, %d ok, %d out_of_range in %.2f s, %d windows \
     (median probe %.3f ms; ping %d, lookup %d, design %d, reload %d)"
    (start_s *. 1e3) r.Serve_load.sent r.Serve_load.ok r.Serve_load.out_of_range
    r.Serve_load.elapsed_s (Array.length r.Serve_load.windows) (Serve_load.probe_ms r)
    r.Serve_load.kinds.(0)
    r.Serve_load.kinds.(1) r.Serve_load.kinds.(2) r.Serve_load.kinds.(3);
  (snap, reqs, r, start_s)

(* a smoke-scale flow before anything is timed: code pages, heap growth
   and the testbench caches settle, so the first timed run is not an
   outlier *)
let warm_up () =
  count_flow (Flows.run_flow ~dir:(sub "warm-up") Config.fast_scale);
  Gc.compact ()

let flow_quality (run : Flows.run) =
  let q = Flows.quality run.Flows.flow in
  count_quality q;
  q

(* ---------- --trace 0: end-to-end ---------- *)

let end_to_end workload ~seed ~seconds =
  let cfg = config_of workload in
  let runtime_s = match workload with Serve_mixed -> 0. | Flow_paper | Flow_wbga -> runtime_start_s () in
  warm_up ();
  (* the first run is kept whole; later ones only as timings and tables,
     so one flow's archive stays live, whatever the count *)
  let first = ref None in
  let samples =
    Array.init (flows_for workload ~seconds) (fun i ->
        let r = Flows.run_flow ~probed:true ~dir:(sub (Printf.sprintf "flow%d" i)) cfg in
        log "flow %d: %.3f s wall, %.3f reference s (mean probe %.3f ms), %.2f ms before the WBGA, %d sims, front %d"
          i r.Flows.wall_s r.Flows.ref_s (r.Flows.probe_s *. 1e3)
          (r.Flows.pre_wbga_s *. 1e3)
          (Flow.total_sims r.Flows.flow.Flow.counts)
          (Array.length r.Flows.flow.Flow.wbga.Wbga.front);
        count_flow r;
        (match !first with
        | None -> first := Some r
        | Some f ->
            check_identical (Printf.sprintf "tables identical, run %d vs 0" i) f.Flows.tables
              r.Flows.tables);
        (* every repetition starts from the same compacted heap *)
        Gc.compact ();
        (r.Flows.ref_s, r.Flows.pre_wbga_s *. probe_ref_s /. r.Flows.probe_s))
  in
  let first = Option.get !first in
  log "peak RSS after the flows: %.1f MB" (peak_rss_mb ());
  let sims = Flows.check_sims cfg first.Flows.flow in
  let q = flow_quality first in
  let duration_s = match workload with Serve_mixed -> seconds | Flow_paper | Flow_wbga -> flow_serve_s in
  log "peak RSS after the quality checks: %.1f MB" (peak_rss_mb ());
  let _, _, sr, serve_setup_s = serve_phase ~seed ~tables_dir:(sub "flow0") ~duration_s in
  let setup_s =
    match workload with
    | Serve_mixed -> serve_setup_s
    | Flow_paper | Flow_wbga ->
        runtime_s +. median (Array.map snd samples)
  in
  emit "setup_s" "s" setup_s;
  emit "flow_s" "s" (median (Array.map fst samples));
  emit_int "sims_total" "count" sims;
  emit "ok_rate" "fraction" (1. -. (float_of_int !failed /. float_of_int (Stdlib.max 1 !attempted)));
  emit "peak_rss_mb" "MB" (peak_rss_mb ());
  emit "spec_yield" "fraction" q.Flows.spec_yield;
  emit "model_err_pct" "%" q.Flows.model_err_pct;
  emit "serve_rps" "req/s" (Serve_load.rps sr);
  emit "serve_p50_us" "us" (Serve_load.p50 sr);
  emit "serve_p99_us" "us" (Serve_load.p99 sr)

(* ---------- --trace 1: per-layer ---------- *)

let span_sums () =
  List.filter_map
    (fun (name, (h : Histogram.summary)) ->
      if String.starts_with ~prefix:"span." name then Some (name, h.Histogram.sum) else None)
    (Metrics.snapshot ()).Metrics.histograms

let span_delta before after name =
  let get l = Option.value (List.assoc_opt ("span." ^ name) l) ~default:0. in
  get after -. get before

let per_layer ~unpin workload ~seed ~seconds =
  let cfg = config_of workload in
  warm_up ();
  (* untraced serial run: the replay's reference wall and tables *)
  let serial = Flows.run_flow ~dir:(sub "flow-j1") cfg in
  count_flow serial;
  let r = Replay.run ~dir:(sub "replay") cfg in
  count ~ops:(r.Replay.wbga.Wbga.evaluations + Array.length r.Replay.wbga.Wbga.front + r.Replay.mc_attempted)
    ~bad:(r.Replay.mc_failed + r.Replay.degraded);
  check_identical "replay tables = Flow.run tables" serial.Flows.tables r.Replay.tables;
  ignore (Flows.check_sims cfg serial.Flows.flow);
  let accounted = Replay.accounted_s r /. r.Replay.wall_s in
  let q = flow_quality serial in
  check "layer accounting closes" (accounted >= 0.9 && accounted <= 1.0)
    (Printf.sprintf "%.4f of the replay's %.3f s in named layers (gate 0.90..1.00)" accounted
       r.Replay.wall_s);
  log "replay %.3f s vs Flow.run %.3f s at jobs 1" r.Replay.wall_s serial.Flows.wall_s;
  let duration_s = match workload with Serve_mixed -> Float.min seconds 10. | Flow_paper | Flow_wbga -> flow_serve_s in
  let snap, reqs, sr, _ = serve_phase ~seed ~tables_dir:(sub "flow-j1") ~duration_s in
  let lookup_us, design_us = Serve_load.handle_us snap reqs in
  let snapshot_load_ms = Serve_load.snapshot_load_ms ~dir:(sub "flow-j1") ~times:5 in
  (* untraced jobs = 2 run, on every CPU: stage spans and worker
     utilisation of the pool *)
  unpin ();
  let before = span_sums () in
  let parallel = Flows.run_flow ~dir:(sub "flow-j2") { cfg with Config.jobs = 2 } in
  let after = span_sums () in
  count_flow parallel;
  check_identical "tables identical, jobs 2 vs jobs 1" serial.Flows.tables parallel.Flows.tables;
  let stage name = span_delta before after name in
  let k = sr.Serve_load.kinds in
  let handle_mean_us =
    ((float_of_int k.(1) *. lookup_us) +. (float_of_int k.(2) *. design_us))
    /. float_of_int (Stdlib.max 1 sr.Serve_load.sent)
  in
  let w = r.Replay.wbga in
  let evals = float_of_int w.Wbga.evaluations in
  let mc_samples = float_of_int (Stdlib.max 1 r.Replay.mc_attempted) in
  let ac_calls = r.Replay.ac_nominal.calls + r.Replay.ac_mc.calls in
  emit "core.wbga_s" "s" (stage "flow.wbga");
  emit "core.front_s" "s" (stage "flow.front-resim");
  emit "core.mc_s" "s" (stage "flow.mc");
  emit "core.tables_s" "s" (stage "flow.tables");
  emit "exec.worker_util" "fraction" (stage "exec.worker" /. (2. *. stage "flow.run"));
  emit "ga.evals" "count" evals;
  emit "ga.infeasible_frac" "fraction" (float_of_int w.Wbga.failures /. evals);
  emit_int "ga.front_size" "count" (Array.length w.Wbga.front);
  emit "ga.self_us_per_eval" "us" ((r.Replay.wbga_s -. r.Replay.evaluate.busy_s) *. 1e6 /. evals);
  emit "circuits.build.us" "us" (us_per_call r.Replay.build);
  emit "circuits.build.words" "words" (words_per_call r.Replay.build);
  emit "circuits.session.us" "us" (us_per_call r.Replay.session);
  emit "circuits.extract.us" "us" (us_per_call r.Replay.extract);
  emit "circuits.extract.words" "words" (words_per_call r.Replay.extract);
  emit "process.overrides.us" "us" (us_per_call r.Replay.overrides);
  emit "process.overrides.words" "words" (words_per_call r.Replay.overrides);
  emit_int "process.mc.samples" "count" r.Replay.mc_attempted;
  emit "process.mc.failed_frac" "fraction" (float_of_int r.Replay.mc_failed /. mc_samples);
  emit_int "process.mc.degraded_points" "count" r.Replay.degraded;
  emit "spice.dcop.nominal.us" "us" (us_per_call r.Replay.dc_nominal);
  emit "spice.dcop.nominal.words" "words" (words_per_call r.Replay.dc_nominal);
  emit "spice.dcop.mc.us" "us" (us_per_call r.Replay.dc_mc);
  emit "spice.dcop.mc.words" "words" (words_per_call r.Replay.dc_mc);
  emit "spice.dcop.newton_iters" "count"
    (float_of_int r.Replay.newton_iters /. float_of_int (Stdlib.max 1 r.Replay.dc_solves));
  emit_int "spice.dcop.retries" "count" r.Replay.retries;
  emit "spice.ac.nominal.us" "us" (us_per_call r.Replay.ac_nominal);
  emit "spice.ac.nominal.words" "words" (words_per_call r.Replay.ac_nominal);
  emit "spice.ac.mc.us" "us" (us_per_call r.Replay.ac_mc);
  emit "spice.ac.mc.words" "words" (words_per_call r.Replay.ac_mc);
  emit "spice.ac.points" "count" (float_of_int r.Replay.ac_points /. float_of_int (Stdlib.max 1 ac_calls));
  emit_int "numeric.real_factors" "count" r.Replay.newton_iters;
  emit_int "numeric.complex_factors" "count" r.Replay.ac_points;
  emit "table.build.us" "us" (us_per_call r.Replay.table_build);
  emit "table.write.us" "us" (us_per_call r.Replay.table_write);
  emit_int "table.rows" "count" r.Replay.table_rows;
  emit "serve.handle.lookup.us" "us" lookup_us;
  emit "serve.handle.design.us" "us" design_us;
  emit "serve.io.us" "us" (sr.Serve_load.mean_rtt_us -. handle_mean_us);
  emit "serve.server_p99_us" "us" (Serve_load.server_p99_us ());
  emit "serve.reload.ms" "ms" (median sr.Serve_load.reload_ms);
  emit "serve.snapshot_load.ms" "ms" snapshot_load_ms;
  emit_int "serve.out_of_range" "count" sr.Serve_load.out_of_range;
  emit "analyse.preflight.ms" "ms" (stage "flow.preflight" *. 1e3);
  emit_int "behavioural.raw_unsimulatable" "count" q.Flows.unsimulatable;
  emit "obs.trace_overhead_frac" "fraction" ((r.Replay.wall_s -. serial.Flows.wall_s) /. serial.Flows.wall_s);
  emit "obs.accounted_frac" "fraction" accounted;
  emit "error_rate" "fraction" (float_of_int !failed /. float_of_int (Stdlib.max 1 !attempted))

(* ---------- output ---------- *)

let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result () =
  let ms = List.rev !metrics in
  List.iter (fun m -> log "metric %-28s %s %s" m.name (number m.value) m.unit_) ms;
  let non_finite = List.filter (fun m -> not (Float.is_finite m.value)) ms in
  check "every metric is a finite number" (non_finite = [])
    (String.concat ", " (List.map (fun m -> m.name) non_finite));
  let correct = !failed_gates = [] in
  let metric m =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
      (if Float.is_finite m.value then number m.value else "null")
      m.unit_
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct (Stdlib.max 1 !attempted) !failed
    (String.concat ", " (List.map metric ms));
  if not correct then begin
    log "FAILED correctness gates: %s" (String.concat ", " (List.rev !failed_gates));
    exit 1
  end

let usage () =
  prerr_endline
    "usage: main.exe --workload flow-paper|flow-wbga|serve-mixed --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let rec parse = function
    | "--workload" :: v :: rest ->
        workload := workload_of_string v;
        parse rest
    | "--seed" :: v :: rest ->
        seed := int_of_string_opt v;
        parse rest
    | "--seconds" :: v :: rest ->
        seconds := float_of_string_opt v;
        parse rest
    | "--trace" :: (("0" | "1") as v) :: rest ->
        trace := Some (v = "1");
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some workload, Some seed, Some seconds, Some trace when seconds > 0. ->
      Yield_resilience.Atomic_io.mkdir_p work_dir;
      let unpin = pin_to_one_cpu () in
      Fun.protect
        ~finally:(fun () ->
          unpin ();
          remove_tree work_dir)
        (fun () ->
          if trace then per_layer ~unpin workload ~seed ~seconds
          else end_to_end workload ~seed ~seconds);
      print_result ()
  | _ -> usage ()
