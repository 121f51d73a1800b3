type sample = {
  mean_cpi : float;
  stddev_cpi : float;
  instructions : int64;
  trials : int;
  failures : int;
  failure_classes : Elfie_supervise.Classify.t list;
}

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let stddev = function
  | [] | [ _ ] -> 0.0
  | xs ->
      let m = mean xs in
      let var =
        List.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 xs
        /. float_of_int (List.length xs - 1)
      in
      sqrt var

let whole_program ?(trials = 3) ?(base_seed = 1000L) spec =
  (* Trials are independent seeded runs, each on its own machine, so
     they fan out across pool domains; results stay in seed order. *)
  let results =
    Elfie_util.Pool.map
      (fun i ->
        let seed = Int64.add base_seed (Int64.of_int i) in
        Elfie_pin.Run.native { spec with Elfie_pin.Run.seed })
      (List.init trials Fun.id)
  in
  let ok = List.filter (fun (s : Elfie_pin.Run.stats) -> s.clean) results in
  let cpis = List.map (fun (s : Elfie_pin.Run.stats) -> s.cpi) ok in
  let last = List.nth results (trials - 1) in
  {
    mean_cpi = mean cpis;
    stddev_cpi = stddev cpis;
    instructions = last.Elfie_pin.Run.retired;
    trials;
    failures = trials - List.length ok;
    (* The whole-program path only knows clean/not-clean; no outcome to
       classify. *)
    failure_classes = [];
  }

let elfie_region_detailed ?(trials = 3) ?(base_seed = 2000L) ?fs_init ?cwd
    ?max_ins image =
  let seeds = List.init trials (fun i -> Int64.add base_seed (Int64.of_int i)) in
  let results =
    (* Warm once at the base seed, fork per trial: the warmup executes a
       single time and each trial forks the captured machine
       copy-on-write, re-deriving its scheduler/timer streams from the
       trial seed. Forks are independent, so they fan out across pool
       domains with results identical at any [--jobs]. An image without
       a warmup mark (or one that fails before it) falls back to one
       full run per trial: the failed warm-up was the base seed's full
       run, so it is trial 0 and only the later seeds run. *)
    match seeds with
    | [] -> []
    | _ :: later -> (
        match
          Elfie_core.Elfie_runner.warm ~seed:base_seed ?fs_init ?cwd ?max_ins
            image
        with
        | Ok warmed ->
            Elfie_util.Pool.map
              (fun seed -> Elfie_core.Elfie_runner.resume ~seed ?max_ins warmed)
              seeds
        | Error first ->
            first
            :: Elfie_util.Pool.map
                 (fun seed ->
                   Elfie_core.Elfie_runner.run ~seed ?fs_init ?cwd ?max_ins
                     image)
                 later)
  in
  let ok =
    List.filter (fun (o : Elfie_core.Elfie_runner.outcome) -> o.graceful) results
  in
  let cpis = List.map (fun (o : Elfie_core.Elfie_runner.outcome) -> o.slice_cpi) ok in
  let instructions =
    match ok with
    | o :: _ -> o.Elfie_core.Elfie_runner.app_retired
    | [] -> 0L
  in
  let failure_classes =
    List.filter_map
      (fun (o : Elfie_core.Elfie_runner.outcome) ->
        if o.graceful then None
        else Some (Elfie_supervise.Classify.of_outcome o))
      results
  in
  ( {
      mean_cpi = mean cpis;
      stddev_cpi = stddev cpis;
      instructions;
      trials;
      failures = trials - List.length ok;
      failure_classes;
    },
    results )

let elfie_region ?trials ?base_seed ?fs_init ?cwd image =
  fst (elfie_region_detailed ?trials ?base_seed ?fs_init ?cwd image)

let pp_sample fmt s =
  Format.fprintf fmt "cpi %.4f +/- %.4f over %d trial(s) (%d failed, %Ld ins)"
    s.mean_cpi s.stddev_cpi s.trials s.failures s.instructions;
  if s.failure_classes <> [] then begin
    (* Aggregate the per-trial crash classes, e.g.
       "2x runaway, 1x stack-collision". *)
    let tally =
      List.fold_left
        (fun acc c ->
          let key = Elfie_supervise.Classify.to_string c in
          match List.assoc_opt key acc with
          | Some n -> (key, n + 1) :: List.remove_assoc key acc
          | None -> (key, 1) :: acc)
        [] s.failure_classes
      |> List.sort (fun (_, a) (_, b) -> compare b a)
    in
    Format.fprintf fmt " [%s]"
      (String.concat ", "
         (List.map (fun (k, n) -> Printf.sprintf "%dx %s" n k) tally))
  end
