module Span = Yield_obs.Span
module Fault = Yield_resilience.Fault

type 'a counted = { results : 'a array; attempted : int; failed : int }

(* One parallel map in flight.  Items are claimed with [next]; every
   participant (workers + caller) decrements [pending] exactly once when it
   runs out of items, and the last one wakes the caller. *)
type job = {
  run : int -> unit;
  count : int;
  next : int Atomic.t;
  pending : int Atomic.t;
  failure : exn option Atomic.t;
}

type t = {
  jobs : int;
  lock : Mutex.t;
  work_ready : Condition.t;
  work_done : Condition.t;
  (* the job workers should be running, tagged with an epoch so a worker
     never re-enters a job it already finished *)
  mutable current : (int * job) option;
  mutable epoch : int;
  mutable stop : bool;
  mutable workers : unit Domain.t list;
}

let jobs t = t.jobs

(* claim and run items until the job is drained (or poisoned by a raise);
   the per-participant span durations give the domain utilisation *)
let run_items job =
  Span.with_ ~name:"exec.worker" (fun () ->
      let rec loop () =
        let i = Atomic.fetch_and_add job.next 1 in
        if i < job.count && Atomic.get job.failure = None then begin
          (match job.run i with
          | () -> ()
          | exception exn ->
              ignore (Atomic.compare_and_set job.failure None (Some exn)));
          loop ()
        end
      in
      loop ())

let finish_participation t job =
  if Atomic.fetch_and_add job.pending (-1) = 1 then begin
    Mutex.lock t.lock;
    Condition.broadcast t.work_done;
    Mutex.unlock t.lock
  end

let rec worker_loop t last_epoch =
  Mutex.lock t.lock;
  let rec await () =
    if t.stop then `Stop
    else
      match t.current with
      | Some (epoch, job) when epoch <> last_epoch -> `Job (epoch, job)
      | Some _ | None ->
          Condition.wait t.work_ready t.lock;
          await ()
  in
  let next = await () in
  Mutex.unlock t.lock;
  match next with
  | `Stop -> ()
  | `Job (epoch, job) ->
      run_items job;
      finish_participation t job;
      worker_loop t epoch

let create ~jobs () =
  let jobs = Stdlib.max 1 jobs in
  let t =
    {
      jobs;
      lock = Mutex.create ();
      work_ready = Condition.create ();
      work_done = Condition.create ();
      current = None;
      epoch = 0;
      stop = false;
      workers = [];
    }
  in
  t.workers <-
    List.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t 0));
  t

let shutdown t =
  Mutex.lock t.lock;
  t.stop <- true;
  Condition.broadcast t.work_ready;
  Mutex.unlock t.lock;
  List.iter Domain.join t.workers;
  t.workers <- []

let with_pool ~jobs f =
  let t = create ~jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let run_job t ~count run =
  if count = 0 then ()
  else if t.jobs <= 1 || count <= 1 then
    (* the exact serial code path: in-order, no atomics, no worker spans *)
    for i = 0 to count - 1 do
      run i
    done
  else begin
    let job =
      {
        run;
        count;
        next = Atomic.make 0;
        pending = Atomic.make t.jobs;
        failure = Atomic.make None;
      }
    in
    Mutex.lock t.lock;
    t.epoch <- t.epoch + 1;
    t.current <- Some (t.epoch, job);
    Condition.broadcast t.work_ready;
    Mutex.unlock t.lock;
    (* the caller is a participant too, so [jobs = 2] means two busy
       domains, not one worker plus an idle coordinator *)
    run_items job;
    finish_participation t job;
    Mutex.lock t.lock;
    while Atomic.get job.pending > 0 do
      Condition.wait t.work_done t.lock
    done;
    Mutex.unlock t.lock;
    match Atomic.get job.failure with Some exn -> raise exn | None -> ()
  end

let map t ~n f =
  let slots = Array.make n None in
  run_job t ~count:n (fun i -> slots.(i) <- Some (f i));
  Array.map
    (function
      | Some v -> v
      | None -> invalid_arg "Pool.map: item skipped without an exception")
    slots

let map_counted t ?fault ~n f =
  (* reserve the fault-index block before any item runs, so the schedule
     decides by global sample index — identical serial and parallel *)
  let base = match fault with None -> 0 | Some p -> Fault.advance p ~by:n in
  let slots = Array.make n None in
  run_job t ~count:n (fun i ->
      slots.(i) <-
        (match fault with
        | Some p when Fault.fire_at p ~index:(base + i) -> None
        | Some _ | None -> f i));
  let failed =
    Array.fold_left (fun acc s -> match s with None -> acc + 1 | Some _ -> acc) 0 slots
  in
  {
    results = Array.of_list (List.filter_map Fun.id (Array.to_list slots));
    attempted = n;
    failed;
  }
