type format = Jsonl | Chrome

type t = {
  format : format;
  oc : out_channel;
  lock : Mutex.t;
  mutable chrome_events : int;  (** separators written so far *)
  mutable closed : bool;
  mutable error : string option;  (** the write error that closed it *)
}

let format_of_path path =
  if Filename.check_suffix path ".jsonl" then Jsonl
  else if Filename.check_suffix path ".json" then Chrome
  else Jsonl

(* callers hold [t.lock]; the first write error closes the stream, so a
   full disk costs the trace, never the run *)
let guarded t write =
  if not t.closed then
    try
      write ();
      flush t.oc
    with Sys_error msg ->
      t.closed <- true;
      t.error <- Some msg;
      close_out_noerr t.oc

let create ?format ~path () =
  let format =
    match format with Some f -> f | None -> format_of_path path
  in
  let t =
    {
      format;
      oc = open_out path;
      lock = Mutex.create ();
      chrome_events = 0;
      closed = false;
      error = None;
    }
  in
  (* the Chrome trace_event array format tolerates a missing closing
     bracket, so an incrementally grown file is loadable even after a
     crash *)
  if format = Chrome then guarded t (fun () -> output_string t.oc "[\n");
  t

let format t = t.format

(* one event = one line = one buffered write + flush, so a crash can lose
   at most a partial final line — which [read_jsonl] tolerates on re-read *)
let write_json t j =
  Mutex.protect t.lock (fun () ->
      guarded t (fun () ->
          match t.format with
          | Jsonl ->
              output_string t.oc (Json.to_string j);
              output_char t.oc '\n'
          | Chrome ->
              if t.chrome_events > 0 then output_string t.oc ",\n";
              t.chrome_events <- t.chrome_events + 1;
              output_string t.oc (Json.to_string j)))

let write_event t phase (e : Span.event) =
  match (t.format, phase) with
  | Jsonl, Span.Closed -> write_json t (Sink.span_json e)
  | Jsonl, Span.Opened ->
      write_json t
        (match Sink.span_json e with
        | Json.Obj (("type", _) :: rest) ->
            Json.Obj (("type", Json.String "span.open") :: rest)
        | other -> other)
  | Chrome, Span.Closed -> write_json t (Sink.chrome_event e)
  | Chrome, Span.Opened -> () (* complete ("X") events are close-time only *)

let close t =
  Mutex.protect t.lock (fun () ->
      if t.format = Chrome then guarded t (fun () -> output_string t.oc "\n]\n");
      (* every write was flushed by [guarded]: nothing is left to lose *)
      if not t.closed then begin
        t.closed <- true;
        close_out_noerr t.oc
      end;
      match t.error with None -> Ok () | Some msg -> Error msg)

(* ---------- re-reading ---------- *)

type reread = { lines : Json.t list; truncated : bool }

let read_jsonl ~path =
  let text =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let complete, last =
    match String.rindex_opt text '\n' with
    | None -> ("", text)
    | Some i ->
        (String.sub text 0 i, String.sub text (i + 1) (String.length text - i - 1))
  in
  let lines =
    String.split_on_char '\n' complete |> List.filter (fun l -> l <> "")
  in
  (* every complete line must parse — mid-file corruption is a real error,
     not crash debris; only the unterminated tail is forgiven *)
  let parsed = List.map Json.parse lines in
  if last = "" then { lines = parsed; truncated = false }
  else
    match Json.parse last with
    | j -> { lines = parsed @ [ j ]; truncated = false }
    | exception Json.Parse_error _ -> { lines = parsed; truncated = true }

let spans_of_lines lines =
  List.filter_map
    (fun j ->
      match Json.member "type" j with
      | Some (Json.String "span") -> Sink.span_of_json j
      | _ -> None)
    lines
