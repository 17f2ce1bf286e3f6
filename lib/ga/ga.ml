module Rng = Yield_stats.Rng
module Span = Yield_obs.Span

type config = {
  population_size : int;
  generations : int;
  selection : Operators.selection;
  crossover : Operators.crossover;
  crossover_rate : float;
  mutation : Operators.mutation;
  elite_count : int;
}

let default_config =
  {
    population_size = 100;
    generations = 100;
    selection = Operators.Tournament 2;
    crossover = Operators.One_point;
    crossover_rate = 0.9;
    mutation = Operators.Gaussian { sigma = 0.08; rate = 0.15 };
    elite_count = 2;
  }

type 'a evaluated = { genome : Genome.t; payload : 'a; fitness : float }

type 'a result = {
  archive : 'a evaluated array;
  best : 'a evaluated;
  history : float array;
  evaluations : int;
}

type 'a snapshot = {
  next_generation : int;
  population : Genome.t array;
  archive_rev : 'a evaluated list;
  snap_best : 'a evaluated option;
  snap_history : float array;
  snap_evaluations : int;
  rng_state : Rng.state;
}

let run ?on_generation ?resume config encoding rng ~score =
  if config.population_size <= 0 then invalid_arg "Ga.run: empty population";
  if config.generations <= 0 then invalid_arg "Ga.run: no generations";
  let pop_size = config.population_size in
  let archive, evaluations, history, resumed_best, start_population, start_gen =
    match resume with
    | Some s ->
        if Array.length s.snap_history <> config.generations then
          invalid_arg "Ga.run: resume snapshot from a different generation count";
        if Array.length s.population <> pop_size then
          invalid_arg "Ga.run: resume snapshot from a different population size";
        Rng.restore rng s.rng_state;
        ( ref s.archive_rev,
          ref s.snap_evaluations,
          Array.copy s.snap_history,
          s.snap_best,
          s.population,
          s.next_generation )
    | None ->
        ( ref [],
          ref 0,
          Array.make config.generations neg_infinity,
          None,
          [||],
          0 )
  in
  let evaluate population =
    (* [score] may fan the evaluations out over domains; the engine touches
       no RNG until it returns, and folds the results in population order,
       so a concurrent score cannot perturb the evolution stream *)
    let scored = score population in
    if Array.length scored <> Array.length population then
      invalid_arg "Ga.run: score returned wrong number of results";
    let evaluated =
      Array.map2
        (fun genome (payload, fitness) -> { genome; payload; fitness })
        population scored
    in
    evaluations := !evaluations + Array.length evaluated;
    Array.iter (fun e -> archive := e :: !archive) evaluated;
    evaluated
  in
  let next_generation evaluated =
    let fitness = Array.map (fun e -> e.fitness) evaluated in
    let order = Array.init pop_size Fun.id in
    Array.sort (fun a b -> Float.compare fitness.(b) fitness.(a)) order;
    let children = ref [] in
    let n_children = ref 0 in
    (* elitism: carry over the top individuals unchanged *)
    let elites = Stdlib.min config.elite_count pop_size in
    for k = 0 to elites - 1 do
      children := Array.copy evaluated.(order.(k)).genome :: !children;
      incr n_children
    done;
    while !n_children < pop_size do
      let i = Operators.select config.selection rng ~fitness in
      let j = Operators.select config.selection rng ~fitness in
      let c1, c2 =
        if Rng.float rng < config.crossover_rate then
          Operators.cross config.crossover rng evaluated.(i).genome
            evaluated.(j).genome
        else (Array.copy evaluated.(i).genome, Array.copy evaluated.(j).genome)
      in
      Operators.mutate config.mutation rng c1;
      Operators.mutate config.mutation rng c2;
      children := c1 :: !children;
      incr n_children;
      if !n_children < pop_size then begin
        children := c2 :: !children;
        incr n_children
      end
    done;
    Array.of_list (List.rev !children)
  in
  let population =
    ref
      (if start_gen > 0 then start_population
       else Array.init pop_size (fun _ -> Genome.random encoding rng))
  in
  let best = ref resumed_best in
  for gen = start_gen to config.generations - 1 do
    Span.with_ ~name:"ga.generation" (fun () ->
        let evaluated = evaluate !population in
        Array.iter
          (fun e ->
            match !best with
            | Some b when b.fitness >= e.fitness -> ()
            | _ -> best := Some e)
          evaluated;
        history.(gen) <-
          (match !best with Some b -> b.fitness | None -> neg_infinity);
        if gen < config.generations - 1 then
          population := next_generation evaluated;
        match on_generation with
        | None -> ()
        | Some hook ->
            hook
              {
                next_generation = gen + 1;
                population = !population;
                archive_rev = !archive;
                snap_best = !best;
                snap_history = Array.copy history;
                snap_evaluations = !evaluations;
                rng_state = Rng.save rng;
              })
  done;
  let best =
    match !best with
    | Some b -> b
    | None -> invalid_arg "Ga.run: nothing evaluated"
  in
  {
    archive = Array.of_list (List.rev !archive);
    best;
    history;
    evaluations = !evaluations;
  }
