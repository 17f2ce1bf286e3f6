module Linsys = Yield_numeric.Linsys
module Fault = Yield_resilience.Fault

type bode = { freqs : float array; response : Complex.t array }

exception Singular of string

(* [ac.solve] fault: the transfer comes back all-NaN, which every measure
   downstream maps to a failed (not crashed) evaluation *)
let fp_solve = Fault.point "ac.solve"

(* mirror of the Dcop.solve structural pre-check: a node the AC matrix
   cannot constrain at any frequency makes [G + jwC] singular independent
   of device values, so fail loudly instead of returning the gmin-shaped
   garbage a nearly-singular factorisation would produce *)
let precheck circuit =
  match Topology.ac_issues circuit with
  | [] -> ()
  | issue :: _ -> raise (Singular (Topology.issue_to_string issue))

let transfer ?sys circuit op ~out ~freqs =
  if Fault.fire fp_solve then
    { freqs; response = Array.map (fun _ -> Complex.{ re = nan; im = nan }) freqs }
  else begin
    precheck circuit;
    let layout = Option.value sys ~default:op.Dcop.layout in
    let cs = Linsys.complex (Mna.size layout) in
    let ops name = Dcop.mos_op op name in
    let rhs = Mna.assemble_ac cs circuit layout ~ops in
    let response =
      Array.map
        (fun freq ->
          let omega = 2. *. Float.pi *. freq in
          let solve = cs.Linsys.factor ~omega in
          let x = solve rhs in
          if out = Device.ground then Complex.zero else x.(out - 1))
        freqs
    in
    { freqs; response }
  end

let transfer_by_name ?sys circuit op ~out ~freqs =
  transfer ?sys circuit op ~out:(Circuit.node circuit out) ~freqs

let default_freqs ?(per_decade = 10) ~f_lo ~f_hi () =
  if f_lo <= 0. || f_hi <= f_lo then invalid_arg "Ac.default_freqs: bad range";
  let decades = log10 (f_hi /. f_lo) in
  let n = Stdlib.max 2 (1 + int_of_float (Float.ceil (decades *. float_of_int per_decade))) in
  Yield_numeric.Vec.logspace f_lo f_hi n
