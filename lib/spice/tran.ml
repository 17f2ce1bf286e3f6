module Linsys = Yield_numeric.Linsys

type options = {
  t_stop : float;
  dt : float;
  max_newton : int;
  vtol : float;
}

let options ?(max_newton = 60) ?(vtol = 1e-7) ~t_stop ~dt () =
  if t_stop <= 0. || dt <= 0. then invalid_arg "Tran.options: non-positive times";
  if dt > t_stop then invalid_arg "Tran.options: dt exceeds t_stop";
  { t_stop; dt; max_newton; vtol }

type t = {
  times : float array;
  solutions : float array array;
  layout : Mna.layout;
}

type error = Dc_failed of Dcop.error | Step_failed of { time : float }

let error_to_string = function
  | Dc_failed e -> "tran: initial " ^ Dcop.error_to_string e
  | Step_failed { time } -> Printf.sprintf "tran: Newton failed at t = %g s" time

(* A capacitive branch tracked through the integration: explicit capacitors
   keep a fixed value; MOS intrinsic/junction capacitances are refreshed
   from the operating point at the start of every step. *)
type cap_slot = {
  a : Device.node;
  b : Device.node;
  mutable c : float;
  mutable i_prev : float;  (* branch current at the last accepted point *)
}

(* slots for one device, in a fixed order so state survives across steps *)
let slots_of_device dev =
  match dev with
  | Device.Capacitor { n1; n2; farads; _ } ->
      [ { a = n1; b = n2; c = farads; i_prev = 0. } ]
  | Device.Mosfet { d; g; s; b; _ } ->
      [
        { a = g; b = s; c = 0.; i_prev = 0. };
        { a = g; b = d; c = 0.; i_prev = 0. };
        { a = d; b; c = 0.; i_prev = 0. };
        { a = s; b; c = 0.; i_prev = 0. };
      ]
  | Device.Resistor _ | Device.Vsource _ | Device.Isource _ | Device.Vccs _ ->
      []

let refresh_mos_slots slots (op : Mosfet.op) =
  match slots with
  | [ gs; gd; db; sb ] ->
      gs.c <- op.Mosfet.cgs;
      gd.c <- op.Mosfet.cgd;
      db.c <- op.Mosfet.cdb;
      sb.c <- op.Mosfet.csb
  | _ -> invalid_arg "Tran: malformed MOS slots"

(* initial operating point with every waveform frozen at t = 0 *)
let initial_circuit circuit =
  Circuit.map_devices circuit (fun dev ->
      match dev with
      | Device.Vsource ({ dc; wave; _ } as v) ->
          Device.Vsource { v with dc = Device.waveform_value wave ~dc 0. }
      | Device.Isource ({ dc; wave; _ } as i) ->
          Device.Isource { i with dc = Device.waveform_value wave ~dc 0. }
      | Device.Resistor _ | Device.Capacitor _ | Device.Vccs _
      | Device.Mosfet _ ->
          dev)

let run ?sys ?models options circuit =
  let layout =
    match sys with Some l -> l | None -> Mna.layout circuit
  in
  let devices = Circuit.devices circuit in
  (* one numeric workspace reused across all steps and Newton
     iterations *)
  let rs = Linsys.real (Mna.size layout) in
  match Dcop.solve ?sys ?models (initial_circuit circuit) with
  | Error e -> Error (Dc_failed e)
  | Ok op0 -> begin
      let slots = Array.map slots_of_device devices in
      (* MOS capacitances from operating points listed in device order *)
      let refresh_caps ops =
        let rest = ref ops in
        Array.iteri
          (fun di dev ->
            match (dev, !rest) with
            | Device.Mosfet _, (_, op) :: tl ->
                refresh_mos_slots slots.(di) op;
                rest := tl
            | _ -> ())
          devices
      in
      refresh_caps op0.Dcop.mos_ops;
      let n_steps = int_of_float (Float.ceil (options.t_stop /. options.dt)) in
      let times = Array.make (n_steps + 1) 0. in
      let solutions = Array.make (n_steps + 1) [||] in
      times.(0) <- 0.;
      solutions.(0) <- Array.copy op0.Dcop.x;
      let x_prev = ref (Array.copy op0.Dcop.x) in
      let failed = ref None in
      let h = options.dt in
      let integ_g ~first c = if first then c /. h else 2. *. c /. h in
      (* trapezoidal (backward-Euler on the first step) history current of
         a capacitive slot: the companion source in parallel with geq *)
      let history ~first slot geq =
        let v_old = Mna.voltage !x_prev slot.a -. Mna.voltage !x_prev slot.b in
        if first then geq *. v_old else (geq *. v_old) +. slot.i_prev
      in
      (* One Newton solve of the companion-model system at time [t]: the
         shared DC walk with sources at [t] and each device's capacitive
         slots stamped right after its own entries. *)
      let step ~first t =
        let companion di rhs =
          List.iter
            (fun slot ->
              let geq = integ_g ~first slot.c in
              let i_hist = history ~first slot geq in
              Mna.stamp_conductance rs.Linsys.add slot.a slot.b geq;
              Mna.inject rhs slot.a i_hist;
              Mna.inject rhs slot.b (-.i_hist))
            slots.(di)
        in
        Dcop.newton_loop rs ~n_nodes:(Mna.n_nodes layout)
          ~max_iterations:(options.max_newton + 1) ~vtol:options.vtol
          ~max_step:0.5
          ~assemble:(fun x ->
            Mna.assemble_dc rs ?models ~time:t ~companion circuit layout ~x
              ~source_scale:1. ~gmin:1e-12)
          !x_prev
      in
      (try
         for n = 1 to n_steps do
           let t = float_of_int n *. options.dt in
           let first = n = 1 in
           match step ~first t with
           | None ->
               failed := Some t;
               raise Exit
           | Some (x, _) ->
               (* accept: update capacitor branch currents and MOS caps *)
               Array.iter
                 (List.iter (fun slot ->
                      let geq = integ_g ~first slot.c in
                      let i_hist = history ~first slot geq in
                      let v_new = Mna.voltage x slot.a -. Mna.voltage x slot.b in
                      slot.i_prev <- (geq *. v_new) -. i_hist))
                 slots;
               refresh_caps (Mna.mos_operating_points ?models circuit ~x);
               times.(n) <- t;
               solutions.(n) <- Array.copy x;
               x_prev := x
         done
       with Exit -> ());
      match !failed with
      | Some time -> Error (Step_failed { time })
      | None -> Ok { times; solutions; layout }
    end

let voltage result node =
  Array.map (fun x -> Mna.voltage x node) result.solutions

let voltage_by_name result circuit name =
  voltage result (Circuit.node circuit name)
