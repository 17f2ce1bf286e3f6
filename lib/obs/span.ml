type event = {
  name : string;
  ts_us : float;
  dur_us : float;
  tid : int;
  depth : int;
}

type phase = Opened | Closed

(* event timestamps are relative to the first use of the library, keeping
   them small enough to survive float printing exactly *)
let epoch_us = Clock.now_us ()

(* per-domain nesting state only; events themselves go to the listeners *)
type local = { mutable depth : int; tid : int }

let dls_key =
  Domain.DLS.new_key (fun () -> { depth = 0; tid = (Domain.self () :> int) })

(* ---------- the live event bus: registered sinks see every span as it
   opens and closes, so telemetry streams to disk instead of accumulating
   in memory ---------- *)

type listener = { id : int; f : phase -> event -> unit }

let listeners : listener list Atomic.t = Atomic.make []

let next_listener_id = Atomic.make 0

let subscribe f =
  let id = Atomic.fetch_and_add next_listener_id 1 in
  let rec add () =
    let cur = Atomic.get listeners in
    if not (Atomic.compare_and_set listeners cur ({ id; f } :: cur)) then add ()
  in
  add ();
  id

let unsubscribe id =
  let rec remove () =
    let cur = Atomic.get listeners in
    let next = List.filter (fun l -> l.id <> id) cur in
    if not (Atomic.compare_and_set listeners cur next) then remove ()
  in
  remove ()

let emit phase e =
  List.iter (fun l -> l.f phase e) (Atomic.get listeners)

let timed ~name f =
  let b = Domain.DLS.get dls_key in
  let depth = b.depth in
  b.depth <- depth + 1;
  let t0 = Clock.now_us () in
  emit Opened { name; ts_us = t0 -. epoch_us; dur_us = 0.; tid = b.tid; depth };
  let finish () =
    let t1 = Clock.now_us () in
    b.depth <- depth;
    let dur_s = (t1 -. t0) /. 1e6 in
    Metrics.observe (Metrics.histogram ("span." ^ name)) dur_s;
    emit Closed
      { name; ts_us = t0 -. epoch_us; dur_us = t1 -. t0; tid = b.tid; depth };
    dur_s
  in
  match f () with
  | v -> (v, finish ())
  | exception exn ->
      ignore (finish ());
      raise exn

let with_ ~name f = fst (timed ~name f)
