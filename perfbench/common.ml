(* Shared plumbing: clocks, robust statistics, the correctness-gate ledger
   and the metric list every workload fills in. *)

module Clock = Yield_obs.Clock
module Histogram = Yield_obs.Histogram

let log fmt = Printf.ksprintf prerr_endline fmt

let now_s = Clock.now_s

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let median xs = Histogram.quantile_of_sorted (sorted xs) 0.5

let sum xs = Array.fold_left ( +. ) 0. xs

(* peak resident set size of this process (VmHWM), in MB *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> nan
        | Some line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | Some _ -> go ()
      in
      go ())

let read_file path = Yield_resilience.Atomic_io.read_file ~path

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* ---------- CPU affinity ---------- *)

(* Timed work runs pinned to one CPU.  On a 2-vCPU virtual machine the
   host deschedules vCPUs in bursts: a paper-scale flow that kept both
   vCPUs busy took 8.6 to 15.9 s across ten consecutive runs, while
   one-CPU work beside it held within a few percent.  The serve loop is a
   ping-pong between two domains: on one CPU a request is a local context
   switch, on two it is a cross-CPU wake-up that a descheduled vCPU
   delays by milliseconds.  Affinity goes through taskset(1); without it
   the run is unpinned and says so on stderr. *)
let taskset args =
  match Unix.open_process_args_in "taskset" (Array.of_list ("taskset" :: args)) with
  | exception Unix.Unix_error _ -> None
  | ic -> (
      let out = In_channel.input_all ic in
      match Unix.close_process_in ic with Unix.WEXITED 0 -> Some out | _ -> None)

(* pin every thread of this process (and the domains it spawns later) to
   the highest CPU of its current mask; returns the restore action *)
let pin_to_one_cpu () =
  let pid = string_of_int (Unix.getpid ()) in
  let mask =
    (* "pid 123's current affinity mask: 3" *)
    Option.bind (taskset [ "-p"; pid ]) (fun out ->
        match String.rindex_opt out ':' with
        | None -> None
        | Some i ->
            let hex = String.trim (String.sub out (i + 1) (String.length out - i - 1)) in
            Option.map (fun m -> (hex, m)) (int_of_string_opt ("0x" ^ hex)))
  in
  match mask with
  | Some (hex, m) when m > 0 ->
      let rec top b = if m lsr (b + 1) = 0 then b else top (b + 1) in
      ignore (taskset [ "-a"; "-p"; Printf.sprintf "%x" (1 lsl top 0); pid ]);
      fun () -> ignore (taskset [ "-a"; "-p"; hex; pid ])
  | Some _ | None ->
      log "taskset unavailable: running unpinned";
      fun () -> ()

(* ---------- host-speed probe ---------- *)

(* The reference box's speed drifts: a fixed piece of pinned, serial work
   ran 20-40% slower in some ten-second stretches than in others, and
   timings of the same flow ten runs apart spread by a quarter.  So every
   end-to-end time is measured together with a probe: a fixed kernel of
   benchmark code (small dense LU, boxed complex arithmetic, short-lived
   allocation, like the simulator's inner loop) run at short intervals
   through the timed work.  A timing is reported in reference seconds:
   the work's own wall clock (probes taken out) times
   [probe_ref_s / mean probe time].  The probe never changes with the
   program, so a faster program still reads faster; a slower host does
   not. *)

let probe_n = 24

let probe_matrix =
  let st = Random.State.make [| 24 |] in
  Array.init probe_n (fun i ->
      Array.init probe_n (fun j ->
          if i = j then 10. +. Random.State.float st 1. else Random.State.float st 1.))

let probe_kernel () =
  let n = probe_n and acc = ref 0. in
  for _ = 1 to 300 do
    let a = Array.map Array.copy probe_matrix in
    for k = 0 to n - 1 do
      let p = ref k in
      for i = k + 1 to n - 1 do
        if Float.abs a.(i).(k) > Float.abs a.(!p).(k) then p := i
      done;
      let t = a.(k) in
      a.(k) <- a.(!p);
      a.(!p) <- t;
      for i = k + 1 to n - 1 do
        let f = a.(i).(k) /. a.(k).(k) in
        a.(i).(k) <- f;
        for j = k + 1 to n - 1 do
          a.(i).(j) <- a.(i).(j) -. (f *. a.(k).(j))
        done
      done
    done;
    let z = ref Complex.one in
    for i = 1 to 200 do
      let w = { Complex.re = a.(i mod n).(i mod n); im = float_of_int i } in
      z := Complex.add (Complex.div !z w) (Complex.exp { Complex.re = 0.; im = 1e-3 *. float_of_int i })
    done;
    let l = List.init 100 (fun i -> (float_of_int i, a.(i mod n).(0))) in
    acc := !acc +. Complex.norm !z +. List.fold_left (fun s (x, y) -> s +. (x *. y)) 0. l
  done;
  !acc

(* one probe's time on the reference box when it is quiet *)
let probe_ref_s = 0.005

type probes = { mutable count : int; mutable total_s : float }

let probes () = { count = 0; total_s = 0. }

let probe p =
  let t0 = now_s () in
  ignore (Sys.opaque_identity (probe_kernel ()));
  p.total_s <- p.total_s +. (now_s () -. t0);
  p.count <- p.count + 1

let mean_probe_s p = p.total_s /. float_of_int p.count

(* [wall_s] of work that contained the probes [p], in reference seconds *)
let reference_s p ~wall_s =
  if p.count = 0 then wall_s else (wall_s -. p.total_s) *. probe_ref_s /. mean_probe_s p

(* run [f] with a probe after every [probe_period_s] of process CPU time
   (SIGVTALRM, which fires only while the process runs user code, so no
   system call is interrupted) *)
let probe_period_s = 0.1

let with_probes f =
  let p = probes () in
  let busy = ref false in
  let handler _ =
    if not !busy then begin
      busy := true;
      probe p;
      busy := false
    end
  in
  let arm v = ignore (Unix.setitimer Unix.ITIMER_VIRTUAL { Unix.it_interval = v; it_value = v }) in
  let old = Sys.signal Sys.sigvtalrm (Sys.Signal_handle handler) in
  arm probe_period_s;
  let r =
    Fun.protect
      ~finally:(fun () ->
        arm 0.;
        Sys.set_signal Sys.sigvtalrm old)
      f
  in
  (r, p)

(* ---------- correctness gates ---------- *)

let failed_gates = ref []

let check name ok detail =
  log "check %-34s %s  %s" name (if ok then "ok" else "FAILED") detail;
  if not ok then failed_gates := name :: !failed_gates

(* ---------- metrics ---------- *)

type metric = { name : string; value : float; unit_ : string }

let metrics : metric list ref = ref []

let emit name unit_ value = metrics := { name; value; unit_ } :: !metrics

let emit_int name unit_ n = emit name unit_ (float_of_int n)

(* per-call accumulator for the traced replay: calls, busy seconds and
   minor-heap words *)
type acc = { mutable calls : int; mutable busy_s : float; mutable words : float }

let acc () = { calls = 0; busy_s = 0.; words = 0. }

(* words are read inside the clock reads so the accumulator's own clock
   boxes stay out of them *)
let time a f =
  let t0 = now_s () in
  let w0 = Gc.minor_words () in
  let r = f () in
  let w1 = Gc.minor_words () in
  let t1 = now_s () in
  a.calls <- a.calls + 1;
  a.busy_s <- a.busy_s +. (t1 -. t0);
  a.words <- a.words +. (w1 -. w0);
  r

let us_per_call a =
  if a.calls = 0 then 0. else a.busy_s *. 1e6 /. float_of_int a.calls

let words_per_call a =
  if a.calls = 0 then 0. else a.words /. float_of_int a.calls
