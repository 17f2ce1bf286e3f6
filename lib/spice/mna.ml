module Vec = Yield_numeric.Vec
module Linsys = Yield_numeric.Linsys

type layout = {
  n_nodes : int;
  size : int;
  branches : (string, int) Hashtbl.t;
}

let layout circuit =
  let n_nodes = Circuit.node_count circuit in
  let branches = Hashtbl.create 8 in
  let next = ref n_nodes in
  Array.iter
    (fun dev ->
      match dev with
      | Device.Vsource { name; _ } ->
          Hashtbl.replace branches name !next;
          incr next
      | Device.Resistor _ | Device.Capacitor _ | Device.Isource _
      | Device.Vccs _ | Device.Mosfet _ ->
          ())
    (Circuit.devices circuit);
  { n_nodes; size = !next; branches }

let size l = l.size

let n_nodes l = l.n_nodes

let branch_index l name = Hashtbl.find l.branches name

let voltage x n = if n = Device.ground then 0. else x.(n - 1)

(* Per-sample model overrides: [models.(di)] replaces the MOSFET model of
   device index [di] (position in [Circuit.devices]) when set.  [None] (or
   a [None] slot) means the nominal model baked into the circuit — this is
   the batch-first Monte Carlo patching path, which must apply the exact
   model the full-rebuild path would have baked in. *)
type models = Mosfet.model option array

let model_override models di default =
  match models with
  | None -> default
  | Some arr -> ( match arr.(di) with Some m -> m | None -> default)

(* Stamping helpers, over an [add row col value] accumulator (a Linsys
   workspace, or the corner analysis's interval accumulator); ground rows
   and columns are skipped. *)

let stamp_g add a b g =
  if a <> Device.ground then add (a - 1) (a - 1) g;
  if b <> Device.ground then add (b - 1) (b - 1) g;
  if a <> Device.ground && b <> Device.ground then begin
    add (a - 1) (b - 1) (-.g);
    add (b - 1) (a - 1) (-.g)
  end

(* transconductance: current [g * v(cp, cn)] leaves node [op] and enters
   node [on] *)
let stamp_gm add op_node on_node cp cn g =
  let entry row col sign =
    if row <> Device.ground && col <> Device.ground then
      add (row - 1) (col - 1) (sign *. g)
  in
  entry op_node cp 1.;
  entry op_node cn (-1.);
  entry on_node cp (-1.);
  entry on_node cn 1.

let inject rhs node value =
  if node <> Device.ground then rhs.(node - 1) <- rhs.(node - 1) +. value

(* NMOS-normalised linearisation of a MOSFET at the guess [x].  Returns the
   operating point plus the device-convention drain current [ids_eff] (the
   current entering the drain terminal). *)
let mos_linearise ~model ~w ~l ~d ~g ~s ~b x =
  let vd = voltage x d
  and vg = voltage x g
  and vs = voltage x s
  and vb = voltage x b in
  let vgs, vds, vbs =
    match model.Mosfet.polarity with
    | Mosfet.Nmos -> (vg -. vs, vd -. vs, vb -. vs)
    | Mosfet.Pmos -> (vs -. vg, vs -. vd, vs -. vb)
  in
  let op = Mosfet.eval model ~w ~l ~vgs ~vds ~vbs in
  let ids_eff =
    match model.Mosfet.polarity with
    | Mosfet.Nmos -> op.Mosfet.ids
    | Mosfet.Pmos -> -.op.Mosfet.ids
  in
  (op, ids_eff)

let stamp_conductance = stamp_g

let stamp_transconductance add ~out_p ~out_n ~in_p ~in_n g =
  stamp_gm add out_p out_n in_p in_n g

let stamp_branch add l ~name ~npos ~nneg =
  let br = Hashtbl.find l.branches name in
  if npos <> Device.ground then begin
    add (npos - 1) br 1.;
    add br (npos - 1) 1.
  end;
  if nneg <> Device.ground then begin
    add (nneg - 1) br (-1.);
    add br (nneg - 1) (-1.)
  end

(* Newton-linearised MOSFET around the guess [x]: the small-signal
   conductances plus the companion current that makes the linear model
   reproduce [ids_eff] at [x] *)
let stamp_mosfet_dc add rhs ~x ~d ~g:gate ~s ~b ~model ~w ~l =
  let op, ids_eff = mos_linearise ~model ~w ~l ~d ~g:gate ~s ~b x in
  let gm = op.Mosfet.gm and gds = op.Mosfet.gds and gmb = op.Mosfet.gmb in
  stamp_gm add d s gate s gm;
  stamp_g add d s gds;
  stamp_gm add d s b s gmb;
  let vd = voltage x d
  and vg = voltage x gate
  and vs = voltage x s
  and vb = voltage x b in
  let linear_current =
    (gm *. (vg -. vs)) +. (gds *. (vd -. vs)) +. (gmb *. (vb -. vs))
  in
  let ieq = linear_current -. ids_eff in
  inject rhs d ieq;
  inject rhs s (-.ieq)

type sys = layout

(* ---------- assembly ---------- *)

let assemble_dc (rs : Linsys.real) ?models ?time ?companion circuit l ~x
    ~source_scale ~gmin =
  rs.Linsys.reset ();
  let add = rs.Linsys.add in
  let rhs = Vec.create l.size in
  for i = 0 to l.n_nodes - 1 do
    add i i gmin
  done;
  let source dc wave =
    match time with None -> dc | Some t -> Device.waveform_value wave ~dc t
  in
  let stamp_device di dev =
    (match dev with
    | Device.Resistor { n1; n2; ohms; _ } -> stamp_g add n1 n2 (1. /. ohms)
    | Device.Capacitor _ -> ()
    | Device.Vsource { name; npos; nneg; dc; wave; _ } ->
        stamp_branch add l ~name ~npos ~nneg;
        rhs.(Hashtbl.find l.branches name) <- source dc wave *. source_scale
    | Device.Isource { npos; nneg; dc; wave; _ } ->
        let v = source dc wave in
        inject rhs npos (-.v *. source_scale);
        inject rhs nneg (v *. source_scale)
    | Device.Vccs { out_p; out_n; in_p; in_n; gm; _ } ->
        stamp_gm add out_p out_n in_p in_n gm
    | Device.Mosfet { d; g = gate; s; b; model; w; l = len; _ } ->
        (* For both polarities, in node-voltage terms:
             d ids_eff/d vg = gm, d/d vd = gds, d/d vb = gmb,
             d/d vs = -(gm + gds + gmb).
           (For PMOS the two sign flips cancel.) *)
        let model = model_override models di model in
        stamp_mosfet_dc add rhs ~x ~d ~g:gate ~s ~b ~model ~w ~l:len);
    match companion with None -> () | Some stamp -> stamp di rhs
  in
  Array.iteri stamp_device (Circuit.devices circuit);
  rhs

let mos_operating_points ?models circuit ~x =
  let acc = ref [] in
  Array.iteri
    (fun di dev ->
      match dev with
      | Device.Mosfet { name; d; g; s; b; model; w; l } ->
          let model = model_override models di model in
          let op, _ = mos_linearise ~model ~w ~l ~d ~g ~s ~b x in
          acc := (name, op) :: !acc
      | Device.Resistor _ | Device.Capacitor _ | Device.Vsource _
      | Device.Isource _ | Device.Vccs _ ->
          ())
    (Circuit.devices circuit);
  List.rev !acc

let assemble_ac (cs : Linsys.complex_sys) circuit l ~ops =
  cs.Linsys.creset ();
  let add_g = cs.Linsys.add_g and add_c = cs.Linsys.add_c in
  let rhs = Array.make l.size Complex.zero in
  let stamp_device dev =
    match dev with
    | Device.Resistor { n1; n2; ohms; _ } -> stamp_g add_g n1 n2 (1. /. ohms)
    | Device.Capacitor { n1; n2; farads; _ } -> stamp_g add_c n1 n2 farads
    | Device.Vsource { name; npos; nneg; ac; _ } ->
        stamp_branch add_g l ~name ~npos ~nneg;
        rhs.(Hashtbl.find l.branches name) <- { Complex.re = ac; im = 0. }
    | Device.Isource { npos; nneg; ac; _ } ->
        if npos <> Device.ground then
          rhs.(npos - 1) <-
            Complex.add rhs.(npos - 1) { Complex.re = -.ac; im = 0. };
        if nneg <> Device.ground then
          rhs.(nneg - 1) <-
            Complex.add rhs.(nneg - 1) { Complex.re = ac; im = 0. }
    | Device.Vccs { out_p; out_n; in_p; in_n; gm; _ } ->
        stamp_gm add_g out_p out_n in_p in_n gm
    | Device.Mosfet { name; d; g = gate; s; b; _ } ->
        let op = ops name in
        stamp_gm add_g d s gate s op.Mosfet.gm;
        stamp_g add_g d s op.Mosfet.gds;
        stamp_gm add_g d s b s op.Mosfet.gmb;
        stamp_g add_c gate s op.Mosfet.cgs;
        stamp_g add_c gate d op.Mosfet.cgd;
        stamp_g add_c d b op.Mosfet.cdb;
        stamp_g add_c s b op.Mosfet.csb
  in
  Array.iter stamp_device (Circuit.devices circuit);
  (* small leak keeps floating nodes (e.g. pure-capacitive) solvable *)
  for i = 0 to l.n_nodes - 1 do
    add_g i i 1e-12
  done;
  rhs
