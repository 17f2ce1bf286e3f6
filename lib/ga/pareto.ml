let dominates ~maximise a b =
  let m = Array.length maximise in
  if Array.length a <> m || Array.length b <> m then
    invalid_arg "Pareto.dominates: objective count mismatch";
  let at_least_as_good = ref true and strictly_better = ref false in
  for j = 0 to m - 1 do
    let ga, gb = if maximise.(j) then (a.(j), b.(j)) else (-.a.(j), -.b.(j)) in
    if ga < gb then at_least_as_good := false;
    if ga > gb then strictly_better := true
  done;
  !at_least_as_good && !strictly_better

let non_dominated ~maximise points =
  let n = Array.length points in
  let dominated = Array.make n false in
  for i = 0 to n - 1 do
    if not dominated.(i) then
      for j = 0 to n - 1 do
        if j <> i && (not dominated.(i)) && dominates ~maximise points.(j) points.(i)
        then dominated.(i) <- true
      done
  done;
  let rec collect i acc =
    if i < 0 then acc
    else collect (i - 1) (if dominated.(i) then acc else i :: acc)
  in
  collect (n - 1) []

(* Kung's sort-and-scan for two maximised objectives: sort by obj0
   descending (obj1 descending as tie-break), keep points whose obj1 exceeds
   the running maximum.  Ties on both objectives are all kept. *)
let front_2d points =
  let n = Array.length points in
  if n = 0 then []
  else begin
    Array.iter
      (fun p ->
        if Array.length p <> 2 then invalid_arg "Pareto.front_2d: need 2 objectives")
      points;
    let order = Array.init n Fun.id in
    Array.sort
      (fun i j ->
        match Float.compare points.(j).(0) points.(i).(0) with
        | 0 -> Float.compare points.(j).(1) points.(i).(1)
        | c -> c)
      order;
    let best1 = ref neg_infinity in
    let front = ref [] in
    Array.iter
      (fun i ->
        let y = points.(i).(1) in
        if y > !best1 then begin
          front := i :: !front;
          best1 := y
        end
        else if y = !best1 then begin
          (* keep exact duplicates of the current frontier point only when the
             x coordinate also ties (otherwise it is dominated) *)
          match !front with
          | j :: _ when points.(j).(0) = points.(i).(0) -> front := i :: !front
          | _ -> ()
        end)
      order;
    List.sort compare !front
  end

let crowding_distance points front =
  let nf = Array.length front in
  let dist = Array.make nf 0. in
  if nf > 0 then begin
    let m = Array.length points.(front.(0)) in
    for j = 0 to m - 1 do
      let order = Array.init nf Fun.id in
      Array.sort
        (fun a b -> Float.compare points.(front.(a)).(j) points.(front.(b)).(j))
        order;
      let lo = points.(front.(order.(0))).(j) in
      let hi = points.(front.(order.(nf - 1))).(j) in
      dist.(order.(0)) <- infinity;
      dist.(order.(nf - 1)) <- infinity;
      if hi > lo then
        for k = 1 to nf - 2 do
          let prev = points.(front.(order.(k - 1))).(j) in
          let next = points.(front.(order.(k + 1))).(j) in
          dist.(order.(k)) <- dist.(order.(k)) +. ((next -. prev) /. (hi -. lo))
        done
    done
  end;
  dist

let hypervolume_2d ~ref_point points =
  let rx, ry = ref_point in
  let front = front_2d points in
  (* walk the front in decreasing obj0; each step adds a rectangle *)
  let members =
    List.map (fun i -> (points.(i).(0), points.(i).(1))) front
    |> List.sort_uniq compare
    |> List.rev (* descending obj0 *)
  in
  let _, total =
    List.fold_left
      (fun (y_prev, acc) (x, y) ->
        if x <= rx || y <= ry then (y_prev, acc)
        else begin
          let height = y -. Float.max ry y_prev in
          if height <= 0. then (y_prev, acc)
          else (y, acc +. ((x -. rx) *. height))
        end)
      (neg_infinity, 0.) members
  in
  total
