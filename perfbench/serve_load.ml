(* The serving side of the benchmark: a closed loop of one client
   connection against an in-process jobs = 1 table server on a unix
   socket.  The request stream is generated up front from the workload
   seed; the server only ever sees the rendered lines. *)

open Common
module Server = Yield_serve.Server
module Client = Yield_serve.Client
module Addr = Yield_serve.Addr
module Handle = Yield_serve.Handle
module Wire = Yield_serve.Wire
module Snapshot = Yield_serve.Snapshot
module Json = Yield_obs.Json
module Metrics = Yield_obs.Metrics
module Histogram = Yield_obs.Histogram
module Perf_model = Yield_behavioural.Perf_model
module Var_model = Yield_behavioural.Var_model

type kind = Ping | Lookup | Design | Reload

type request = { kind : kind; line : string; query : Wire.query option }

(* every reload_every-th request is a hot reload: a write beside the reads *)
let reload_every = 2000

let stream_length = 1 lsl 16

let control = "3E"

let render q = Json.to_string (Wire.request_to_json q)

(* ping 1 : lookup 6 : design 3.  Lookups stay inside the perf table's
   gain and PM ranges; design specs inside both the perf ranges and the
   variation table's domains, so a healthy server answers every one. *)
let requests ~seed (snap : Snapshot.t) =
  let rng = Random.State.make [| seed |] in
  let inner (lo, hi) =
    let span = hi -. lo in
    lo +. (0.1 *. span) +. Random.State.float rng (0.8 *. span)
  in
  let meet (a, b) (c, d) = (Float.max a c, Float.min b d) in
  let perf_gain = Perf_model.gain_range snap.Snapshot.perf in
  let perf_pm = Perf_model.pm_range snap.Snapshot.perf in
  let design_gain = meet perf_gain (Var_model.gain_domain snap.Snapshot.var) in
  let design_pm = meet perf_pm (Var_model.pm_domain snap.Snapshot.var) in
  let query kind q = { kind; line = render (Wire.Query q); query = Some q } in
  Array.init stream_length (fun i ->
      if (i + 1) mod reload_every = 0 then
        { kind = Reload; line = render (Wire.Admin Wire.Reload); query = None }
      else
        match Random.State.int rng 10 with
        | 0 -> query Ping Wire.Ping
        | r when r <= 6 ->
            let gain_db = inner perf_gain in
            let pm_deg = inner perf_pm in
            query Lookup (Wire.Lookup { gain_db; pm_deg })
        | _ ->
            let min_gain_db = inner design_gain in
            let min_pm_deg = inner design_pm in
            query Design (Wire.Design { min_gain_db; min_pm_deg }))

let load_snapshot ~dir =
  match Snapshot.load ~generation:1 ~dir ~control with
  | Ok s -> s
  | Error (msg, _) -> failwith ("perfbench: cannot load the tables: " ^ msg)

(* ---------- server lifecycle ---------- *)

type server = { domain : int Domain.t; client : Client.t }

let ready_line = render (Wire.Admin Wire.Ready)

let is_ok line = String.starts_with ~prefix:"{\"ok\":true" line

let recv c =
  match Client.recv_line c with
  | Some line -> line
  | None -> failwith "perfbench: the server closed the connection"

(* spawn the server and wait for its first [ready] frame; returns the
   running server and the start-to-ready time.  The wait blocks instead of
   spinning: client and server share one CPU. *)
let start ~addr ~tables_dir =
  let cfg = { (Server.default ~addr ~tables_dir) with Server.jobs = 1 } in
  let m = Mutex.create () and cond = Condition.create () in
  let state = ref `Starting in
  let set s = Mutex.protect m (fun () -> state := s; Condition.signal cond) in
  let t0 = now_s () in
  let domain =
    Domain.spawn (fun () ->
        let code = Server.run ~signals:false ~on_ready:(fun () -> set `Listening) cfg in
        set (`Exited code);
        code)
  in
  Mutex.protect m (fun () ->
      while !state = `Starting do
        Condition.wait cond m
      done);
  (match !state with
  | `Exited code -> failwith (Printf.sprintf "perfbench: the server exited with %d" code)
  | `Starting | `Listening -> ());
  let client = Client.connect ~timeout_s:10. addr in
  Client.send_line client ready_line;
  let frame = recv client in
  let ready_s = now_s () -. t0 in
  if not (is_ok frame) then failwith ("perfbench: ready probe failed: " ^ frame);
  ({ domain; client }, ready_s)

let stop s =
  Client.send_line s.client (render (Wire.Admin Wire.Shutdown));
  ignore (Client.recv_line s.client);
  Client.close s.client;
  Domain.join s.domain

(* [starts] timed start-to-ready cycles; the last server keeps running.
   The median start is in reference seconds: a host-speed probe follows
   every start. *)
let start_timed ~starts ~addr ~tables_dir =
  let times = Array.make starts 0. in
  let codes = ref [] in
  let p = probes () in
  let rec go k =
    let s, t = start ~addr ~tables_dir in
    times.(k) <- t;
    probe p;
    if k + 1 < starts then begin
      codes := stop s :: !codes;
      go (k + 1)
    end
    else s
  in
  let s = go 0 in
  (s, median times *. probe_ref_s /. mean_probe_s p, !codes)

(* ---------- the closed loop ---------- *)

(* the loop is cut into back-to-back windows; the reported rate and
   percentiles are medians over windows, so a burst of interference from
   outside the process moves one window, not the run.  A host-speed probe
   runs between two requests every [probe_gap_s], outside any request's
   latency. *)
let window_s = 0.5

let probe_gap_s = 0.1

type window = {
  rps : float;
  p50_us : float;
  p99_us : float;
  probe_s : float;  (** mean probe time; nan without a probe *)
}

type result = {
  sent : int;
  ok : int;
  out_of_range : int;
  elapsed_s : float;
  mean_rtt_us : float;
  windows : window array;
  kinds : int array;  (** sent per kind: ping, lookup, design, reload *)
  reload_ms : float array;
}

let kind_index = function Ping -> 0 | Lookup -> 1 | Design -> 2 | Reload -> 3

let error_code line =
  match Json.member "error" (Json.parse line) with
  | Some err -> Option.bind (Json.member "code" err) Json.string_value
  | None -> None
  | exception Json.Parse_error _ -> None

(* a window's figures in reference time (Common.reference_s): the probes
   taken between its requests scale latencies and rate *)
let window_of lat ~count ~ok ~dur_s ~(probes : probes) =
  let w = sorted (Array.sub lat 0 count) in
  let scale = if probes.count = 0 then 1. else probe_ref_s /. mean_probe_s probes in
  {
    rps = float_of_int ok /. reference_s probes ~wall_s:dur_s;
    p50_us = Histogram.quantile_of_sorted w 0.5 *. scale;
    p99_us = Histogram.quantile_of_sorted w 0.99 *. scale;
    probe_s = (if probes.count = 0 then nan else mean_probe_s probes);
  }

(* answers of a seeded subset of the first pass over the stream are kept
   for the in-process cross-check *)
let drive s ~seed ~(reqs : request array) ~duration_s =
  let keep_rng = Random.State.make [| seed; 7 |] in
  let keep = Array.init (Array.length reqs) (fun _ -> Random.State.int keep_rng 40 = 0) in
  let kept = ref [] in
  (* one window's latencies: the buffer is reused, so the heap does not
     grow with the run's length or the box's speed *)
  let lat = ref (Array.make 65536 0.) and w_n = ref 0 and rtt_us = ref 0. in
  let kinds = Array.make 4 0 in
  let reloads = ref [] and windows = ref [] in
  let ok = ref 0 and oor = ref 0 and n = ref 0 in
  let t_start = now_s () in
  let until = t_start +. duration_s in
  let w_ok = ref 0 and w_t0 = ref t_start in
  let w_probes = ref (probes ()) and next_probe = ref t_start in
  while now_s () < until do
    if now_s () >= !next_probe then begin
      probe !w_probes;
      next_probe := now_s () +. probe_gap_s
    end;
    let i = !n mod Array.length reqs in
    let r = reqs.(i) in
    let t0 = now_s () in
    Client.send_line s.client r.line;
    let line = recv s.client in
    let t1 = now_s () in
    if !w_n = Array.length !lat then begin
      let grown = Array.make (2 * !w_n) 0. in
      Array.blit !lat 0 grown 0 !w_n;
      lat := grown
    end;
    !lat.(!w_n) <- (t1 -. t0) *. 1e6;
    incr w_n;
    rtt_us := !rtt_us +. ((t1 -. t0) *. 1e6);
    incr n;
    let k = kind_index r.kind in
    kinds.(k) <- kinds.(k) + 1;
    if r.kind = Reload then reloads := ((t1 -. t0) *. 1e3) :: !reloads;
    if is_ok line then begin
      incr ok;
      incr w_ok
    end
    else if error_code line = Some "out_of_range" then incr oor;
    if !n <= Array.length reqs && keep.(i) then kept := (i, line) :: !kept;
    if t1 -. !w_t0 >= window_s then begin
      windows :=
        window_of !lat ~count:!w_n ~ok:!w_ok ~dur_s:(t1 -. !w_t0)
          ~probes:!w_probes
        :: !windows;
      w_probes := probes ();
      w_n := 0;
      w_ok := 0;
      w_t0 := t1
    end
  done;
  let elapsed_s = now_s () -. t_start in
  ( {
      sent = !n;
      ok = !ok;
      out_of_range = !oor;
      elapsed_s;
      mean_rtt_us = !rtt_us /. float_of_int (Stdlib.max 1 !n);
      windows = Array.of_list (List.rev !windows);
      kinds;
      reload_ms = Array.of_list !reloads;
    },
    List.rev !kept )

let rps r = median (Array.map (fun w -> w.rps) r.windows)

let p50 r = median (Array.map (fun w -> w.p50_us) r.windows)

let p99 r = median (Array.map (fun w -> w.p99_us) r.windows)

let probe_ms r = median (Array.map (fun w -> w.probe_s *. 1e3) r.windows)

let expected_frame snap q =
  match Handle.query snap q with
  | Ok (op, fields) -> Wire.ok_frame ~op fields
  | Error e -> Wire.error_frame e.Wire.code e.Wire.message

(* served answers must equal in-process Handle.query answers *)
let check_answers snap (reqs : request array) kept =
  let compared = ref 0 and mismatched = ref 0 in
  List.iter
    (fun (i, line) ->
      match reqs.(i).query with
      | None -> ()
      | Some q ->
          incr compared;
          if line ^ "\n" <> expected_frame snap q then incr mismatched)
    kept;
  check "served answers = Handle.query"
    (!compared > 0 && !mismatched = 0)
    (Printf.sprintf "%d compared, %d mismatched" !compared !mismatched)

(* ---------- per-layer probes (traced run) ---------- *)

(* mean in-process Handle.query time per query kind, over the stream *)
let handle_us snap (reqs : request array) =
  let lookup = acc () and design = acc () in
  Array.iter
    (fun r ->
      match (r.kind, r.query) with
      | Lookup, Some q -> ignore (time lookup (fun () -> Handle.query snap q))
      | Design, Some q -> ignore (time design (fun () -> Handle.query snap q))
      | (Ping | Lookup | Design | Reload), _ -> ())
    reqs;
  (us_per_call lookup, us_per_call design)

let snapshot_load_ms ~dir ~times =
  median
    (Array.init times (fun _ ->
         let t0 = now_s () in
         ignore (load_snapshot ~dir);
         (now_s () -. t0) *. 1e3))

let server_p99_us () =
  match List.assoc_opt "serve.latency_us" (Metrics.snapshot ()).Metrics.histograms with
  | Some h -> h.Histogram.p99
  | None -> nan
