module Circuit = Yield_spice.Circuit
module Mna = Yield_spice.Mna
module Linsys = Yield_numeric.Linsys
module Dcop = Yield_spice.Dcop
module Ac = Yield_spice.Ac
module Measure = Yield_spice.Measure
module Noise = Yield_spice.Noise
module Tran = Yield_spice.Tran
module Measure_tran = Yield_spice.Measure_tran
module Device = Yield_spice.Device
module Tech = Yield_process.Tech
module Variation = Yield_process.Variation

type conditions = {
  tech : Tech.t;
  vcm : float;
  load_cap : float;
  f_lo : float;
  f_hi : float;
  points_per_decade : int;
  min_unity_gain_hz : float;
}

let default_conditions =
  {
    tech = Tech.c35;
    vcm = 1.65;
    load_cap = 3e-12;
    f_lo = 10.;
    f_hi = 1e9;
    points_per_decade = 10;
    min_unity_gain_hz = 10e6;
  }

type perf = {
  gain_db : float;
  phase_margin_deg : float;
  unity_gain_hz : float;
  f3db_hz : float;
  rout_est : float;
}

type step_perf = {
  slew_v_per_us : float;
  settling_1pct_s : float option;
  overshoot_pct : float;
  final_error_v : float;
}

let perf_of_bode conditions b =
  let gain_db = Measure.dc_gain_db b in
  match (Measure.unity_gain_freq b, Measure.phase_margin_deg b) with
  | Some fu, Some pm when Float.is_finite gain_db ->
      let f3db = Option.value (Measure.f3db b) ~default:nan in
      let gain_lin = 10. ** (gain_db /. 20.) in
      let rout_est = gain_lin /. (2. *. Float.pi *. fu *. conditions.load_cap) in
      Some
        {
          gain_db;
          phase_margin_deg = pm;
          unity_gain_hz = fu;
          f3db_hz = f3db;
          rout_est;
        }
  | _ -> None

let feasible conditions p =
  p.phase_margin_deg > 0. && p.unity_gain_hz >= conditions.min_unity_gain_hz

let objectives p = [| p.gain_db; p.phase_margin_deg |]

let freqs_of conditions =
  Ac.default_freqs ~per_decade:conditions.points_per_decade
    ~f_lo:conditions.f_lo ~f_hi:conditions.f_hi ()

module Make (A : Amplifier.S) = struct
  (* Variant testbenches.  [stimulus] selects where the unit AC source is
     applied; the DC arrangement never changes, so all variants share the
     same operating point by construction. *)
  type stimulus = Differential | Common_mode | Supply

  let build_variant conditions params stimulus =
    let c = Circuit.create () in
    let tech = conditions.tech in
    let vdd_ac =
      match stimulus with Supply -> 1. | Differential | Common_mode -> 0.
    in
    let vin_ac =
      match stimulus with Supply -> 0. | Differential | Common_mode -> 1.
    in
    Circuit.add_vsource c ~name:"VDD" ~ac:vdd_ac "vdd" "0" tech.Tech.vdd;
    Circuit.add_vsource c ~name:"VIN" ~ac:vin_ac "vp" "0" conditions.vcm;
    (* DC unity feedback through RFB; CBIG AC-grounds the inverting input —
       except in the common-mode variant, where its far plate is driven so
       both inputs move together *)
    Circuit.add_resistor c ~name:"RFB" "out" "vm" 1e9;
    let cbig_bottom =
      match stimulus with Common_mode -> "vp" | Differential | Supply -> "0"
    in
    Circuit.add_capacitor c ~name:"CBIG" "vm" cbig_bottom 1.;
    Circuit.add_capacitor c ~name:"CL" "out" "0" conditions.load_cap;
    A.add c ~prefix:"x1." ~tech ~params ~inp:"vm" ~inn:"vp" ~out:"out"
      ~vdd:"vdd" ~vss:"0";
    Circuit.nodeset c (Circuit.node c "out") conditions.vcm;
    Circuit.nodeset c (Circuit.node c "vm") conditions.vcm;
    Circuit.nodeset c (Circuit.node c "vdd") tech.Tech.vdd;
    c

  let build ?(conditions = default_conditions) params =
    (build_variant conditions params Differential, "out")

  let bode ?(conditions = default_conditions) params =
    let circuit, _ = build ~conditions params in
    match Dcop.solve_with_retry circuit with
    | Error _ -> None
    | Ok op ->
        Some (Ac.transfer_by_name circuit op ~out:"out" ~freqs:(freqs_of conditions))

  let evaluate ?(conditions = default_conditions) params =
    match bode ~conditions params with
    | None -> None
    | Some b -> perf_of_bode conditions b

  (* ---------- batch-first sessions ----------

     One circuit instantiation and its MNA layout per design point; each
     sample only patches device models.  Sessions are immutable, so
     sharing one across domains is safe. *)

  type session = {
    s_conditions : conditions;
    s_circuit : Circuit.t;
    s_sys : Mna.sys;
  }

  (* [solver] is the retired backend choice: its one value selects
     nothing (see [Linsys.backend]) *)
  let session ?(conditions = default_conditions)
      ?solver:(_ : Linsys.backend option) params =
    let circuit, _ = build ~conditions params in
    {
      s_conditions = conditions;
      s_circuit = circuit;
      s_sys = Mna.layout circuit;
    }

  let session_circuit s = s.s_circuit

  let session_sys s = s.s_sys

  let bode_in_session s models =
    match Dcop.solve_with_retry ~sys:s.s_sys ~models s.s_circuit with
    | Error _ -> None
    | Ok op ->
        Some
          (Ac.transfer_by_name ~sys:s.s_sys s.s_circuit op ~out:"out"
             ~freqs:(freqs_of s.s_conditions))

  let perf_in_session s models =
    Option.bind (bode_in_session s models) (perf_of_bode s.s_conditions)

  let evaluate_in_session s ~spec ~rng =
    perf_in_session s (Variation.overrides spec rng s.s_circuit)

  let evaluate_with_draw ?conditions ~spec ~draw params =
    let s = session ?conditions params in
    let no_mismatch =
      { spec with Variation.mismatch = Variation.zero_spec.Variation.mismatch }
    in
    (* the rng is only consulted for mismatch, which is zeroed *)
    let rng = Yield_stats.Rng.create 0 in
    perf_in_session s
      (Variation.overrides_with_draw no_mismatch draw rng s.s_circuit)

  let low_freq_gain_db conditions circuit =
    match Dcop.solve_with_retry circuit with
    | Error _ -> None
    | Ok op ->
        let freqs = [| conditions.f_lo |] in
        let b = Ac.transfer_by_name circuit op ~out:"out" ~freqs in
        Some (Measure.dc_gain_db b)

  let cmrr_db ?(conditions = default_conditions) params =
    let adm = low_freq_gain_db conditions (build_variant conditions params Differential) in
    let acm = low_freq_gain_db conditions (build_variant conditions params Common_mode) in
    match (adm, acm) with
    | Some adm, Some acm -> Some (adm -. acm)
    | _ -> None

  let psrr_db ?(conditions = default_conditions) params =
    let adm = low_freq_gain_db conditions (build_variant conditions params Differential) in
    let avdd = low_freq_gain_db conditions (build_variant conditions params Supply) in
    match (adm, avdd) with
    | Some adm, Some avdd -> Some (adm -. avdd)
    | _ -> None

  let input_referred_noise ?(conditions = default_conditions) ?flicker params =
    let circuit, _ = build ~conditions params in
    match Dcop.solve_with_retry circuit with
    | Error _ -> None
    | Ok op -> begin
        let freqs = freqs_of conditions in
        let b = Ac.transfer_by_name circuit op ~out:"out" ~freqs in
        let out_node = Circuit.node circuit "out" in
        let points = Noise.output_noise ?flicker circuit op ~out:out_node ~freqs in
        let input = Noise.input_referred points ~gain:b in
        match Measure.unity_gain_freq b with
        | None -> None
        | Some fu ->
            let in_band =
              Array.of_list
                (List.filter (fun (f, _) -> f <= fu) (Array.to_list input))
            in
            if Array.length in_band < 2 then None
            else Some (input, Noise.integrate_rms in_band)
      end

  let step_response ?(conditions = default_conditions) ?(amplitude = 0.5)
      ?(t_stop = 2e-6) ?(dt = 2e-9) params =
    let c = Circuit.create () in
    let tech = conditions.tech in
    let v_lo = conditions.vcm -. (amplitude /. 2.) in
    let v_hi = conditions.vcm +. (amplitude /. 2.) in
    Circuit.add_vsource c ~name:"VDD" "vdd" "0" tech.Tech.vdd;
    let wave =
      Device.Pulse
        {
          v1 = v_lo;
          v2 = v_hi;
          delay = 0.1 *. t_stop;
          rise = 2. *. dt;
          fall = 2. *. dt;
          width = t_stop;
          period = 0.;
        }
    in
    Circuit.add_vsource c ~name:"VIN" ~wave "vp" "0" v_lo;
    Circuit.add_capacitor c ~name:"CL" "out" "0" conditions.load_cap;
    (* unity-gain follower: output tied straight to the inverting input *)
    A.add c ~prefix:"x1." ~tech ~params ~inp:"out" ~inn:"vp" ~out:"out"
      ~vdd:"vdd" ~vss:"0";
    Circuit.nodeset c (Circuit.node c "out") v_lo;
    match Tran.run (Tran.options ~t_stop ~dt ()) c with
    | Error _ -> None
    | Ok result -> Some (result.Tran.times, Tran.voltage_by_name result c "out")

  let step_perf ?conditions ?amplitude ?t_stop ?dt params =
    match step_response ?conditions ?amplitude ?t_stop ?dt params with
    | None -> None
    | Some (times, values) ->
        let conditions' = Option.value conditions ~default:default_conditions in
        let amplitude' = Option.value amplitude ~default:0.5 in
        let target = conditions'.vcm +. (amplitude' /. 2.) in
        Some
          {
            slew_v_per_us = Measure_tran.slew_rate ~times ~values /. 1e6;
            settling_1pct_s = Measure_tran.settling_time ~times ~values ();
            overshoot_pct = Measure_tran.overshoot_pct ~times ~values;
            final_error_v = Float.abs (Measure_tran.final_value ~values -. target);
          }
end
