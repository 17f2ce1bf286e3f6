module Json = Yield_obs.Json
module Clock = Yield_obs.Clock
module Metrics = Yield_obs.Metrics
module Span = Yield_obs.Span
module Fault = Yield_resilience.Fault
module Retry = Yield_resilience.Retry
module Pool = Yield_exec.Pool
module Diagnostic = Yield_analyse.Diagnostic
module Perf_model = Yield_behavioural.Perf_model

(* chaos surface: one point per structurally distinct failure path *)
let fp_handler = Fault.point "serve.handler"

let fp_accept = Fault.point "serve.accept"

let fp_reload = Fault.point "serve.reload"

let c_requests = Metrics.counter "serve.requests"

let c_served = Metrics.counter "serve.served"

let c_rejected = Metrics.counter "serve.rejected"

let c_shed = Metrics.counter "serve.shed"

let c_timeouts = Metrics.counter "serve.timeouts"

let c_failed = Metrics.counter "serve.failed"

let c_bad_input = Metrics.counter "serve.bad_input"

let c_oversized = Metrics.counter "serve.oversized"

let c_conns_opened = Metrics.counter "serve.conns.opened"

let c_conns_closed = Metrics.counter "serve.conns.closed"

let c_reloads_ok = Metrics.counter "serve.reloads.ok"

let c_reloads_failed = Metrics.counter "serve.reloads.failed"

let c_slow_client = Metrics.counter "serve.slow_client_drops"

let c_accept_failed = Metrics.counter "serve.accept_failures"

let h_latency = Metrics.histogram "serve.latency_us"

type config = {
  addr : Addr.t;
  tables_dir : string;
  control : string;
  jobs : int;
  deadline_s : float;
  queue_capacity : int;
  max_line : int;
  max_out_buffer : int;
  max_conns : int;
  tick_s : float;
  drain_grace_s : float;
  handler_attempts : int;
  log : string -> unit;
}

let default ~addr ~tables_dir =
  {
    addr;
    tables_dir;
    control = "3E";
    jobs = 1;
    deadline_s = 0.25;
    queue_capacity = 1024;
    max_line = 65536;
    max_out_buffer = 4 * 1024 * 1024;
    max_conns = 1024;
    tick_s = 0.02;
    drain_grace_s = 5.;
    handler_attempts = 3;
    log = ignore;
  }

type conn = {
  fd : Unix.file_descr;
  inbuf : Buffer.t;
  outbuf : Buffer.t;
  mutable out_pos : int;  (** bytes of [outbuf] already on the wire *)
  mutable eof : bool;  (** client half-closed; close once flushed *)
  mutable closed : bool;
  cid : int;
}

type job = {
  conn : conn;
  snapshot : Snapshot.t;
  jquery : Wire.query;
  rid : Json.t option;
  admitted_s : float;
}

type state = {
  cfg : config;
  mutable listener : Unix.file_descr option;
  conns : (int, conn) Hashtbl.t;
  queue : job Bqueue.t;
  snapshot : Snapshot.t Atomic.t;
  pool : Pool.t;
  policy : Retry.policy;
  mutable last_reload_error : (string * Diagnostic.t list) option;
  mutable draining : bool;
  mutable drain_started_s : float;
  started_s : float;
  mutable next_cid : int;
}

(* signal flags are necessarily process-global; [run] resets them on entry *)
let sighup_flag = Atomic.make false

let sigterm_flag = Atomic.make false

(* ---------- connection IO (control domain only) ---------- *)

let pending_out conn = Buffer.length conn.outbuf - conn.out_pos

let close_conn st conn =
  if not conn.closed then begin
    conn.closed <- true;
    Hashtbl.remove st.conns conn.cid;
    (try Unix.close conn.fd with Unix.Unix_error _ -> ());
    Metrics.incr c_conns_closed
  end

let flush_conn st conn =
  if (not conn.closed) && pending_out conn > 0 then begin
    let s = Buffer.contents conn.outbuf in
    let rec push () =
      let remaining = String.length s - conn.out_pos in
      if remaining > 0 then begin
        match Unix.write_substring conn.fd s conn.out_pos remaining with
        | exception
            Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
          ->
            ()
        | exception Unix.Unix_error _ -> close_conn st conn
        | n ->
            conn.out_pos <- conn.out_pos + n;
            if n > 0 && conn.out_pos < String.length s then push ()
      end
    in
    push ();
    if (not conn.closed) && pending_out conn = 0 then begin
      Buffer.clear conn.outbuf;
      conn.out_pos <- 0;
      if conn.eof then close_conn st conn
    end
  end

let send st conn frame =
  if not conn.closed then begin
    Buffer.add_string conn.outbuf frame;
    flush_conn st conn;
    (* a reader that cannot keep up must not become our memory problem *)
    if (not conn.closed) && pending_out conn > st.cfg.max_out_buffer then begin
      Metrics.incr c_slow_client;
      st.cfg.log (Printf.sprintf "conn %d dropped: slow client" conn.cid);
      close_conn st conn
    end
  end

(* ---------- query handling (pool workers; everything is caught) ---------- *)

let observe_latency job =
  Metrics.observe h_latency ((Clock.now_s () -. job.admitted_s) *. 1e6)

let handle_job st job =
  let deadline =
    if st.cfg.deadline_s > 0. then Some (job.admitted_s +. st.cfg.deadline_s)
    else None
  in
  let expired () =
    match deadline with Some d -> Clock.now_s () > d | None -> false
  in
  let frame =
    if expired () then begin
      Metrics.incr c_timeouts;
      Wire.error_frame ?id:job.rid Wire.Timeout "deadline expired in queue"
    end
    else begin
      let classify (e : Wire.err) =
        (* injected/unexpected handler failures are worth retrying inside
           the deadline; semantic answers (out_of_range, ...) are final *)
        match e.Wire.code with
        | Wire.Internal -> Retry.Transient
        | _ -> Retry.Permanent
      in
      let result =
        Retry.with_retries ?deadline_s:deadline st.policy ~classify
          (fun ~attempt:_ ->
            if Fault.fire fp_handler then
              Error
                {
                  Wire.code = Wire.Internal;
                  message = "injected handler failure";
                }
            else begin
              try Handle.query job.snapshot job.jquery
              with e ->
                Error
                  {
                    Wire.code = Wire.Internal;
                    message = "handler exception: " ^ Printexc.to_string e;
                  }
            end)
      in
      match result with
      | Ok (op, fields) ->
          if expired () then begin
            (* the answer exists but the contract is the deadline: a late
               success is still a timeout to the client *)
            Metrics.incr c_timeouts;
            Wire.error_frame ?id:job.rid Wire.Timeout "deadline expired"
          end
          else begin
            Metrics.incr c_served;
            Wire.ok_frame ?id:job.rid ~op fields
          end
      | Error ({ Wire.code = Wire.Internal; _ } as e) ->
          Metrics.incr c_failed;
          Wire.error_frame ?id:job.rid e.Wire.code e.Wire.message
      | Error e ->
          Metrics.incr c_rejected;
          Wire.error_frame ?id:job.rid e.Wire.code e.Wire.message
    end
  in
  observe_latency job;
  frame

let dispatch st =
  let batch = Bqueue.pop_up_to st.queue ~max:(Stdlib.max 1 (st.cfg.jobs * 4)) in
  match batch with
  | [] -> ()
  | jobs ->
      let arr = Array.of_list jobs in
      let n = Array.length arr in
      let frames =
        Span.with_ ~name:"serve.batch" (fun () ->
            Pool.map st.pool ~n (fun i -> handle_job st arr.(i)))
      in
      Array.iteri (fun i frame -> send st arr.(i).conn frame) frames

(* ---------- admin ops (inline on the control domain) ---------- *)

let counters_json () =
  let value c = Json.Int (Metrics.value c) in
  Json.Obj
    [
      ("requests", value c_requests);
      ("served", value c_served);
      ("rejected", value c_rejected);
      ("shed", value c_shed);
      ("timeouts", value c_timeouts);
      ("failed", value c_failed);
      ("bad_input", value c_bad_input);
      ("oversized", value c_oversized);
      ("conns_opened", value c_conns_opened);
      ("conns_closed", value c_conns_closed);
      ("reloads_ok", value c_reloads_ok);
      ("reloads_failed", value c_reloads_failed);
      ("slow_client_drops", value c_slow_client);
      ("accept_failures", value c_accept_failed);
    ]

let health_fields st =
  let snap = Atomic.get st.snapshot in
  let glo, ghi = Perf_model.gain_range snap.Snapshot.perf in
  let plo, phi = Perf_model.pm_range snap.Snapshot.perf in
  [
    ("uptime_s", Json.Float (Clock.now_s () -. st.started_s));
    ("generation", Json.Int snap.Snapshot.generation);
    ("tables_dir", Json.String snap.Snapshot.dir);
    ("control", Json.String snap.Snapshot.control);
    ("draining", Json.Bool st.draining);
    ("jobs", Json.Int st.cfg.jobs);
    ( "queue",
      Json.Obj
        [
          ("depth", Json.Int (Bqueue.length st.queue));
          ("capacity", Json.Int (Bqueue.capacity st.queue));
        ] );
    ( "model",
      Json.Obj
        [
          ("points", Json.Int (Perf_model.size snap.Snapshot.perf));
          ("gain_range", Json.List [ Json.Float glo; Json.Float ghi ]);
          ("pm_range", Json.List [ Json.Float plo; Json.Float phi ]);
        ] );
    ("counters", counters_json ());
    ("lint", Diagnostic.list_to_json snap.Snapshot.findings);
    ( "last_reload_error",
      match st.last_reload_error with
      | None -> Json.Null
      | Some (msg, findings) ->
          Json.Obj
            [
              ("message", Json.String msg);
              ("findings", Diagnostic.list_to_json findings);
            ] );
  ]

let do_reload st ~respond =
  let current = Atomic.get st.snapshot in
  let fail msg findings =
    Metrics.incr c_reloads_failed;
    st.last_reload_error <- Some (msg, findings);
    st.cfg.log ("reload rejected: " ^ msg);
    respond
      (Wire.error_frame
         ~extra:[ ("findings", Diagnostic.list_to_json findings) ]
         Wire.Reload_rejected msg)
  in
  if Fault.fire fp_reload then fail "injected reload failure" []
  else begin
    match
      Snapshot.load
        ~generation:(current.Snapshot.generation + 1)
        ~dir:st.cfg.tables_dir ~control:st.cfg.control
    with
    | Error (msg, findings) -> fail msg findings
    | Ok snap ->
        (* the swap is the whole commit: requests admitted before this
           instant keep the old snapshot they captured, requests admitted
           after it see the new one — nothing in between *)
        Atomic.set st.snapshot snap;
        st.last_reload_error <- None;
        Metrics.incr c_reloads_ok;
        st.cfg.log
          (Printf.sprintf "reloaded: generation %d (%d findings)"
             snap.Snapshot.generation
             (List.length snap.Snapshot.findings));
        respond
          (Wire.ok_frame ~op:"reload"
             [
               ("generation", Json.Int snap.Snapshot.generation);
               ("findings", Diagnostic.list_to_json snap.Snapshot.findings);
             ])
  end

let begin_drain st reason =
  if not st.draining then begin
    st.draining <- true;
    st.drain_started_s <- Clock.now_s ();
    st.cfg.log ("draining: " ^ reason);
    (match st.listener with
    | Some fd ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Addr.unlink st.cfg.addr
    | None -> ());
    st.listener <- None
  end

let handle_admin st conn id admin =
  let respond frame = send st conn frame in
  match admin with
  | Wire.Health -> respond (Wire.ok_frame ?id ~op:"health" (health_fields st))
  | Wire.Ready ->
      let snap = Atomic.get st.snapshot in
      respond
        (Wire.ok_frame ?id ~op:"ready"
           [
             ("ready", Json.Bool (not st.draining));
             ("generation", Json.Int snap.Snapshot.generation);
           ])
  | Wire.Reload -> do_reload st ~respond:(fun frame -> send st conn frame)
  | Wire.Shutdown ->
      respond (Wire.ok_frame ?id ~op:"shutdown" [ ("draining", Json.Bool true) ]);
      begin_drain st "shutdown op"

(* ---------- request admission ---------- *)

let process_line st conn line =
  let line =
    (* tolerate CRLF clients *)
    let n = String.length line in
    if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line
  in
  if line <> "" then begin
    match Wire.parse line with
    | Error err ->
        Metrics.incr c_bad_input;
        send st conn (Wire.error_frame err.Wire.code err.Wire.message)
    | Ok (Wire.Admin admin, id) -> handle_admin st conn id admin
    | Ok (Wire.Query q, rid) ->
        if st.draining then
          send st conn
            (Wire.error_frame ?id:rid Wire.Draining "server is draining")
        else begin
          Metrics.incr c_requests;
          let job =
            {
              conn;
              snapshot = Atomic.get st.snapshot;
              jquery = q;
              rid;
              admitted_s = Clock.now_s ();
            }
          in
          if not (Bqueue.try_push st.queue job) then begin
            Metrics.incr c_shed;
            send st conn
              (Wire.error_frame ?id:rid Wire.Overloaded
                 "request queue is full — load shed")
          end
        end
  end

let drain_lines st conn =
  let data = Buffer.contents conn.inbuf in
  Buffer.clear conn.inbuf;
  let len = String.length data in
  let rec go start =
    if start >= len then ()
    else begin
      match String.index_from_opt data start '\n' with
      | Some nl ->
          let line = String.sub data start (nl - start) in
          if String.length line > st.cfg.max_line then begin
            Metrics.incr c_oversized;
            send st conn
              (Wire.error_frame Wire.Oversized
                 (Printf.sprintf "request line exceeds %d bytes" st.cfg.max_line))
          end
          else process_line st conn line;
          go (nl + 1)
      | None ->
          let rest = len - start in
          if rest > st.cfg.max_line then begin
            (* no frame boundary in sight: answer and cut the connection,
               or the buffer grows without limit *)
            Metrics.incr c_oversized;
            send st conn
              (Wire.error_frame Wire.Oversized
                 (Printf.sprintf "request line exceeds %d bytes" st.cfg.max_line));
            close_conn st conn
          end
          else Buffer.add_substring conn.inbuf data start rest
    end
  in
  go 0

let read_conn st conn =
  let chunk = Bytes.create 65536 in
  match Unix.read conn.fd chunk 0 (Bytes.length chunk) with
  | exception
      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      ()
  | exception Unix.Unix_error _ -> close_conn st conn
  | 0 ->
      conn.eof <- true;
      if pending_out conn = 0 then close_conn st conn
  | n ->
      Buffer.add_subbytes conn.inbuf chunk 0 n;
      drain_lines st conn

let accept_ready st =
  match st.listener with
  | None -> ()
  | Some lfd ->
      if Fault.fire fp_accept then begin
        (* simulated accept failure: the pending connection stays queued in
           the kernel and is retried on the next wake *)
        Metrics.incr c_accept_failed;
        st.cfg.log "accept failed (injected)"
      end
      else begin
        let rec go () =
          match Unix.accept lfd with
          | exception
              Unix.Unix_error
                ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
              ()
          | exception Unix.Unix_error _ -> Metrics.incr c_accept_failed
          | fd, _ ->
              if Hashtbl.length st.conns >= st.cfg.max_conns then begin
                Metrics.incr c_shed;
                let frame =
                  Wire.error_frame Wire.Overloaded "connection limit reached"
                in
                (try
                   ignore
                     (Unix.write_substring fd frame 0 (String.length frame))
                 with Unix.Unix_error _ -> ());
                try Unix.close fd with Unix.Unix_error _ -> ()
              end
              else begin
                Unix.set_nonblock fd;
                let cid = st.next_cid in
                st.next_cid <- cid + 1;
                Hashtbl.replace st.conns cid
                  {
                    fd;
                    inbuf = Buffer.create 256;
                    outbuf = Buffer.create 256;
                    out_pos = 0;
                    eof = false;
                    closed = false;
                    cid;
                  };
                Metrics.incr c_conns_opened;
                go ()
              end
        in
        go ()
      end

(* ---------- the control loop ---------- *)

let run ?(on_ready = fun () -> ()) ?(signals = true) cfg =
  Atomic.set sighup_flag false;
  Atomic.set sigterm_flag false;
  match Snapshot.load ~generation:1 ~dir:cfg.tables_dir ~control:cfg.control with
  | Error (msg, findings) ->
      cfg.log ("cannot load models: " ^ msg);
      cfg.log (Diagnostic.list_to_text findings);
      1
  | Ok snap0 -> begin
      match Addr.listen cfg.addr with
      | exception Unix.Unix_error (e, _, arg) ->
          cfg.log
            (Printf.sprintf "cannot listen on %s: %s %s"
               (Addr.to_string cfg.addr) (Unix.error_message e) arg);
          1
      | lfd ->
          Unix.set_nonblock lfd;
          let restore_signals =
            if signals then begin
              let prev_hup =
                Sys.signal Sys.sighup
                  (Sys.Signal_handle (fun _ -> Atomic.set sighup_flag true))
              in
              let prev_term =
                Sys.signal Sys.sigterm
                  (Sys.Signal_handle (fun _ -> Atomic.set sigterm_flag true))
              in
              let prev_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
              fun () ->
                Sys.set_signal Sys.sighup prev_hup;
                Sys.set_signal Sys.sigterm prev_term;
                Sys.set_signal Sys.sigpipe prev_pipe
            end
            else begin
              (* SIGPIPE would still kill us on a peer reset mid-write *)
              let prev_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
              fun () -> Sys.set_signal Sys.sigpipe prev_pipe
            end
          in
          let pool = Pool.create ~jobs:cfg.jobs () in
          let st =
            {
              cfg;
              listener = Some lfd;
              conns = Hashtbl.create 64;
              queue = Bqueue.create ~capacity:cfg.queue_capacity ();
              snapshot = Atomic.make snap0;
              pool;
              policy =
                Retry.policy ~max_attempts:cfg.handler_attempts "serve.handler";
              last_reload_error = None;
              draining = false;
              drain_started_s = 0.;
              started_s = Clock.now_s ();
              next_cid = 0;
            }
          in
          cfg.log
            (Printf.sprintf "serving %s on %s (jobs %d, deadline %g ms)"
               cfg.tables_dir (Addr.to_string cfg.addr) cfg.jobs
               (cfg.deadline_s *. 1e3));
          on_ready ();
          let conn_list () = Hashtbl.fold (fun _ c acc -> c :: acc) st.conns [] in
          let finished = ref false in
          while not !finished do
            let conns = conn_list () in
            let rds =
              (match st.listener with Some fd -> [ fd ] | None -> [])
              @ List.filter_map
                  (fun c -> if c.eof || c.closed then None else Some c.fd)
                  conns
            in
            let wrs =
              List.filter_map
                (fun c ->
                  if (not c.closed) && pending_out c > 0 then Some c.fd
                  else None)
                conns
            in
            let readable, writable =
              match Unix.select rds wrs [] cfg.tick_s with
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [])
              | r, w, _ -> (r, w)
            in
            (match st.listener with
            | Some fd when List.memq fd readable -> accept_ready st
            | Some _ | None -> ());
            List.iter
              (fun c ->
                if (not c.closed) && List.memq c.fd readable then
                  read_conn st c)
              conns;
            if Atomic.exchange sighup_flag false then
              do_reload st ~respond:(fun _frame -> ());
            if Atomic.get sigterm_flag then begin_drain st "SIGTERM";
            dispatch st;
            List.iter
              (fun c ->
                if (not c.closed) && List.memq c.fd writable then
                  flush_conn st c)
              conns;
            if st.draining then begin
              let all_flushed =
                Hashtbl.fold
                  (fun _ c acc -> acc && pending_out c = 0)
                  st.conns true
              in
              if
                (Bqueue.length st.queue = 0 && all_flushed)
                || Clock.now_s () -. st.drain_started_s > cfg.drain_grace_s
              then finished := true
            end
          done;
          (* drained: everything admitted was answered and flushed *)
          Hashtbl.iter (fun _ c -> close_conn st c) (Hashtbl.copy st.conns);
          (match st.listener with
          | Some fd ->
              (try Unix.close fd with Unix.Unix_error _ -> ());
              Addr.unlink cfg.addr
          | None -> ());
          Pool.shutdown pool;
          restore_signals ();
          cfg.log
            (Printf.sprintf
               "drained: %d served, %d shed, %d timeouts, %d failed"
               (Metrics.value c_served) (Metrics.value c_shed)
               (Metrics.value c_timeouts) (Metrics.value c_failed));
          0
    end
