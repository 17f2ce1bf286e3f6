type prescreen = {
  enabled : bool;
  k_sigma : float;
  min_gain_db : float;
  min_pm_deg : float;
  pass_budget_frac : float;
}

type t = {
  conditions : Yield_circuits.Ota_testbench.conditions;
  variation : Yield_process.Variation.spec;
  ga : Yield_ga.Ga.config;
  mc_samples : int;
  front_stride : int;
  control : string;
  seed : int;
  jobs : int;
  prescreen : prescreen;
}

let no_prescreen =
  {
    enabled = false;
    k_sigma = 3.;
    min_gain_db = 0.;
    min_pm_deg = 0.;
    pass_budget_frac = 1.;
  }

let paper_scale =
  {
    conditions = Yield_circuits.Ota_testbench.default_conditions;
    variation = Yield_process.Variation.default_spec;
    ga =
      {
        Yield_ga.Ga.default_config with
        Yield_ga.Ga.population_size = 100;
        generations = 100;
      };
    mc_samples = 200;
    front_stride = 1;
    control = "3E";
    seed = 2008;
    jobs = 1;
    prescreen = no_prescreen;
  }

let fast_scale =
  {
    paper_scale with
    ga =
      {
        Yield_ga.Ga.default_config with
        Yield_ga.Ga.population_size = 40;
        generations = 25;
      };
    mc_samples = 40;
    front_stride = 4;
  }

let prescreen_of_env () =
  let flag k =
    match Sys.getenv_opt k with
    | Some v when v <> "" && v <> "0" -> true
    | Some _ | None -> false
  in
  let num k default =
    match Option.bind (Sys.getenv_opt k) float_of_string_opt with
    | Some v -> v
    | None -> default
  in
  let d = no_prescreen in
  if not (flag "YIELDLAB_PRESCREEN") then d
  else
    {
      enabled = true;
      k_sigma = num "YIELDLAB_PRESCREEN_K" d.k_sigma;
      min_gain_db = num "YIELDLAB_PRESCREEN_MIN_GAIN" d.min_gain_db;
      min_pm_deg = num "YIELDLAB_PRESCREEN_MIN_PM" d.min_pm_deg;
      pass_budget_frac =
        (let f = num "YIELDLAB_PRESCREEN_PASS_BUDGET" d.pass_budget_frac in
         if f > 0. && f <= 1. then f else d.pass_budget_frac);
    }

let of_env () =
  let base =
    match Sys.getenv_opt "YIELDLAB_FAST" with
    | Some v when v <> "" && v <> "0" -> fast_scale
    | Some _ | None -> paper_scale
  in
  {
    base with
    jobs = Yield_exec.Jobs.resolve ();
    prescreen = prescreen_of_env ();
  }

let fingerprint t =
  (* everything the checkpointed stages' determinism depends on; resuming
     under a different fingerprint is refused.  [jobs] is deliberately
     absent: results are jobs-independent, so a serial checkpoint may be
     resumed under a pool *)
  let base =
    Printf.sprintf "v1;seed=%d;pop=%d;gens=%d;mc=%d;stride=%d;control=%s"
      t.seed t.ga.Yield_ga.Ga.population_size t.ga.Yield_ga.Ga.generations
      t.mc_samples t.front_stride t.control
  in
  (* the prescreen changes which points consume Monte Carlo budget, so it
     is part of the fingerprint — but only when enabled, so every
     pre-existing checkpoint stays resumable *)
  if not t.prescreen.enabled then base
  else
    Printf.sprintf "%s;prescreen=k:%g,g:%g,pm:%g,b:%g" base
      t.prescreen.k_sigma t.prescreen.min_gain_db t.prescreen.min_pm_deg
      t.prescreen.pass_budget_frac

let scale_name t =
  if
    t.ga.Yield_ga.Ga.population_size = paper_scale.ga.Yield_ga.Ga.population_size
    && t.ga.Yield_ga.Ga.generations = paper_scale.ga.Yield_ga.Ga.generations
    && t.mc_samples = paper_scale.mc_samples
  then "paper-scale"
  else "reduced-scale"
