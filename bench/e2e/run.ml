(* End-to-end benchmark of the ELFie pipeline. See README.md.

   One workload per process: with --workload NAME this process sets the
   workload up, times passes over its programs for --seconds, checks the
   output digests and prints one "workload metric value unit" line per
   metric followed by a one-line JSON result. Without --workload it runs
   itself once per workload, one child process after another, so each
   workload's peak RSS is its own. *)

module Trace = Elfie_obs.Trace
module Json = Elfie_obs.Json

let workloads = Workloads.all

(* The set-up is timed this many times; setup_s is the median. *)
let setup_reps = 7

type opts = {
  mutable workload : string option;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable trace_dir : string option;
  mutable jobs : int;
  mutable reps : int;
  mutable size : Work.size;
  mutable out : string option;
  mutable compare : (string * string) option;
}

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Peak resident set of this process since the last [reset_peak_rss]
   (VmHWM), in MB. *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun l ->
         Scanf.sscanf_opt l "VmHWM: %f kB" (fun kb -> kb /. 1024.0))
  |> Option.value ~default:0.0

(* Writing 5 to clear_refs resets VmHWM to the current RSS (Linux 4.0
   and later). Where that is refused, VmHWM stays the process peak. *)
let reset_peak_rss () =
  try
    Out_channel.with_open_text "/proc/self/clear_refs" (fun oc ->
        output_string oc "5")
  with Sys_error _ -> ()

let num x =
  if Float.is_finite x then Json.Num x
  else invalid_arg (Printf.sprintf "run: non-finite value %g" x)

let result_json ~correct ~attempted ~failed metrics =
  Json.Obj
    [ ("correct", Json.Bool correct);
      ("attempted", num (float_of_int attempted));
      ("failed", num (float_of_int failed));
      ( "metrics",
        Json.Obj
          (List.map
             (fun (name, value, unit_) ->
               (name, Json.Obj [ ("value", num value); ("unit", Json.Str unit_) ]))
             metrics) ) ]

let append_record o ~workload result =
  Option.iter
    (fun path ->
      let record =
        Json.Obj
          [ ("workload", Json.Str workload);
            ("seed", num (float_of_int o.seed));
            ("size", Json.Str (Work.size_name o.size));
            ("jobs", num (float_of_int o.jobs));
            ("seconds", num o.seconds);
            ("trace", Json.Bool o.trace);
            ("result", result) ]
      in
      Out_channel.with_open_gen [ Open_append; Open_creat; Open_text ] 0o644 path
        (fun oc -> output_string oc (Json.to_string record ^ "\n")))
    o.out

type pass_run = {
  pass : Work.pass;
  wall : float;
  peak_mb : float;
  layers : (string * float) list option;
}

(* Two host-speed samples (see calib.ml), taken before the set-up,
   before every pass and after the last. *)
let calibrate samples =
  for _ = 1 to 2 do
    samples := Calib.sample () :: !samples
  done

(* One pass, started from a compacted heap so every pass's peak RSS
   counts the same starting state; traced passes also yield their
   per-layer metrics. *)
let run_pass o (inst : Work.instance) ~calib ~traced =
  calibrate calib;
  Gc.compact ();
  reset_peak_rss ();
  if traced then begin
    Trace.reset ();
    Trace.set_enabled true
  end;
  let before = Layers.snapshot () in
  let pass, wall = time (fun () -> inst.run_pass ~jobs:o.jobs) in
  let counts = Layers.delta before (Layers.snapshot ()) in
  Trace.set_enabled false;
  let layers =
    if traced then
      Some
        (Layers.of_pass ~jobs:o.jobs ~wall ~events:(Trace.events ()) ~counts
           ~work:pass.work)
    else None
  in
  { pass; wall; peak_mb = peak_rss_mb (); layers }

(* Seconds [Pool.map] takes to run tasks of these latencies on [jobs]
   workers: each task, in order, goes to the worker that frees up first. *)
let makespan ~jobs latencies =
  let free = Array.make jobs 0.0 in
  List.iter
    (fun l ->
      let i = ref 0 in
      Array.iteri (fun j t -> if t < free.(!i) then i := j) free;
      free.(!i) <- free.(!i) +. l)
    latencies;
  Array.fold_left Float.max 0.0 free

(* Wall seconds of one pass: the makespan of each program's median
   latency over the passes, plus the median over passes of the time the
   pass took beyond the makespan of its own latencies (domain spawn and
   join, the pool's own scheduling, the digest). A program's median
   discards the passes a burst of host slowness hit, where the median of
   whole passes needs many more passes to; a slower program, a worse
   balance or a slower pool all still show. *)
let pass_seconds o runs =
  match runs with
  | [] -> invalid_arg "pass_seconds: no passes"
  | r :: _ ->
      let n = List.length r.pass.latencies in
      let lat i = List.map (fun r -> List.nth r.pass.latencies i) runs in
      makespan ~jobs:o.jobs (List.init n (fun i -> Stats.median (lat i)))
      +. Stats.median
           (List.map (fun r -> r.wall -. makespan ~jobs:o.jobs r.pass.latencies) runs)

(* The probe's bench-side spans replace the stage metrics a pass could
   not time (the pinpoints workloads capture and convert inside the
   library). *)
let probe_layers (inst : Work.instance) =
  let already = List.length (Trace.events ()) in
  Trace.set_enabled true;
  let work = inst.probe () in
  Trace.set_enabled false;
  if work = [] then []
  else
    let events = List.filteri (fun i _ -> i >= already) (Trace.events ()) in
    Layers.stages events work

let run_workload o (w : Work.t) =
  Trace.set_enabled false;
  Trace.set_capacity 1_000_000;
  let calib = ref [] in
  calibrate calib;
  let setups = List.init setup_reps (fun _ -> time (fun () -> w.setup o.size ~seed:o.seed)) in
  let inst = fst (List.nth setups (setup_reps - 1)) in
  let inputs_stable =
    List.for_all (fun ((i : Work.instance), _) -> i.inputs_digest = inst.inputs_digest) setups
  in
  (* Traced runs alternate untraced and traced passes, so the tracing
     overhead is measured on passes interleaved in time. *)
  let deadline = Unix.gettimeofday () +. o.seconds in
  let rec loop acc n =
    if n >= o.reps && Unix.gettimeofday () >= deadline then List.rev acc
    else loop (run_pass o inst ~calib ~traced:(o.trace && n mod 2 = 1) :: acc) (n + 1)
  in
  let runs = loop [] 0 in
  calibrate calib;
  (* Timings read as seconds on a host at the reference speed. *)
  let scale = 1.0 /. Stats.median !calib in
  let untraced = List.filter (fun r -> r.layers = None) runs in
  let setup_raw = Stats.median (List.map snd setups) in
  let wall_raw = pass_seconds o untraced in
  let digests = List.map (fun r -> Work.digest inst r.pass) runs in
  let digest = List.hd digests in
  let expected = Work.expected ~workload:w.name ~size:o.size ~seed:o.seed in
  let stable = List.for_all (String.equal digest) digests in
  let correct =
    inputs_stable && stable
    && Option.fold ~none:true ~some:(String.equal digest) expected
  in
  let attempted = Work.sum_i (fun r -> r.pass.attempted) runs in
  let failed = Work.sum_i (fun r -> r.pass.failed) runs in
  let first = (List.hd runs).pass in
  let values =
    if o.trace then begin
      let traced = List.filter_map (fun r -> r.layers) runs in
      let probe = probe_layers inst in
      Option.iter
        (fun dir ->
          Trace.write_chrome (Filename.concat dir (w.name ^ ".trace.json")))
        o.trace_dir;
      let overhead =
        let traced_runs = List.filter (fun r -> r.layers <> None) runs in
        100.0 *. ((pass_seconds o traced_runs /. pass_seconds o untraced) -. 1.0)
      in
      ("trace.overhead_pct", overhead)
      :: List.map
           (fun (name, _) ->
             match List.assoc_opt name probe with
             | Some v -> (name, v)
             | None -> (name, Stats.median (List.map (List.assoc name) traced)))
           (List.hd traced)
    end
    else
      [ ("wall_s", wall_raw *. scale);
        ("setup_s", setup_raw *. scale);
        ("peak_rss_mb", Stats.median (List.map (fun r -> r.peak_mb) untraced));
        ("coverage_pct", 100.0 *. first.coverage) ]
  in
  let declared = if o.trace then Declared.per_layer else Declared.end_to_end in
  Declared.check ~what:w.name declared (List.map fst values);
  let metrics =
    List.map
      (fun (m : Declared.metric) -> (m.name, List.assoc m.name values, m.unit_))
      declared
  in
  List.iter
    (fun (name, v, unit_) -> Printf.printf "%s %s %.6g %s\n" w.name name v unit_)
    metrics;
  List.iter
    (fun (name, v) -> Printf.printf "%s %s %.6g %%\n" w.name name v)
    first.info;
  Printf.printf
    "%s passes %d (unscaled: wall %.4g s, setup %.4g s; median of whole \
     passes %.4g s; host slowdown %.4g)\n"
    w.name (List.length runs) wall_raw setup_raw
    (Stats.median (List.map (fun r -> r.wall) untraced))
    (Stats.median !calib);
  Printf.printf "%s ops %d/%d failed\n" w.name failed attempted;
  Printf.printf "%s digest %s %s\n" w.name digest
    (match expected with
    | None -> "(no committed digest for this seed)"
    | Some e when e = digest -> "(matches committed digest)"
    | Some e -> "(MISMATCH: committed " ^ e ^ ")");
  if not stable then Printf.printf "%s digest differs between passes\n" w.name;
  if not inputs_stable then
    Printf.printf "%s generated inputs differ between set-ups\n" w.name;
  if Trace.dropped () > 0 then
    Printf.printf "%s trace dropped %d events\n" w.name (Trace.dropped ());
  let result = result_json ~correct ~attempted ~failed metrics in
  append_record o ~workload:w.name result;
  (correct, metrics, result)

let write_layers dir rows =
  let body =
    Json.Obj
      [ ( "metrics",
          Json.Arr
            (List.map
               (fun (m : Declared.metric) ->
                 let p = List.assoc m.name Layers.places in
                 Json.Obj
                   [ ("name", Json.Str m.name); ("unit", Json.Str m.unit_);
                     ("better", Json.Str (Declared.better m));
                     ("layer", Json.Str p.layer); ("moves", Json.Str p.moves);
                     ("on", Json.Str p.on) ])
               Declared.per_layer) );
        ( "workloads",
          Json.Obj
            (List.map
               (fun (w, metrics) ->
                 (w, Json.Obj (List.map (fun (n, v, _) -> (n, num v)) metrics)))
               rows) ) ]
  in
  Out_channel.with_open_text (Filename.concat dir "layers.json") (fun oc ->
      output_string oc (Json.to_string body ^ "\n"))

let child_args o name =
  [ "--workload"; name; "--seed"; string_of_int o.seed;
    "--seconds"; Printf.sprintf "%g" o.seconds;
    "--trace"; (if o.trace then "1" else "0");
    "--jobs"; string_of_int o.jobs; "--reps"; string_of_int o.reps;
    "--size"; Work.size_name o.size ]
  @ match o.trace_dir with Some d -> [ "--trace-dir"; d ] | None -> []

(* Every workload, each in a child process; the child's last line is its
   JSON result. *)
let run_all o =
  let results =
    List.map
      (fun (w : Work.t) ->
        let args = Array.of_list (Sys.executable_name :: child_args o w.name) in
        let ic = Unix.open_process_args_in Sys.executable_name args in
        let lines = In_channel.input_all ic |> String.trim |> String.split_on_char '\n' in
        let status = Unix.close_process_in ic in
        let body, last =
          match List.rev lines with l :: rest -> (List.rev rest, l) | [] -> ([], "")
        in
        List.iter print_endline body;
        flush stdout;
        let parsed =
          match (status, Json.parse last) with
          | (Unix.WEXITED 0 | Unix.WEXITED 1), Ok j -> Some j
          | _ -> None
        in
        Option.iter (append_record o ~workload:w.name) parsed;
        let member k = Option.bind parsed (Json.member k) in
        let count k = match member k with Some (Json.Num v) -> int_of_float v | _ -> 0 in
        let metrics =
          match member "metrics" with
          | Some (Json.Obj ms) ->
              List.map
                (fun (n, v) ->
                  let get k conv = Option.bind (Json.member k v) conv in
                  ( n,
                    Option.value ~default:0.0 (get "value" Json.to_float),
                    Option.value ~default:"" (get "unit" Json.to_str) ))
                ms
          | _ -> []
        in
        ( w.name,
          member "correct" = Some (Json.Bool true),
          (count "attempted", count "failed"),
          metrics ))
      workloads
  in
  Option.iter
    (fun dir -> write_layers dir (List.map (fun (w, _, _, ms) -> (w, ms)) results))
    o.trace_dir;
  let correct = List.for_all (fun (_, c, _, _) -> c) results in
  ( correct,
    result_json ~correct
      ~attempted:(Work.sum_i (fun (_, _, (a, _), _) -> a) results)
      ~failed:(Work.sum_i (fun (_, _, (_, f), _) -> f) results)
      (List.concat_map
         (fun (w, _, _, ms) -> List.map (fun (n, v, u) -> (w ^ "." ^ n, v, u)) ms)
         results) )

let () =
  let o =
    { workload = None; seed = 1; seconds = 20.0; trace = false; trace_dir = None;
      jobs = 2; reps = 3; size = Work.Full; out = None; compare = None }
  in
  let names = List.map (fun (w : Work.t) -> w.name) workloads in
  let cmp_a = ref "" in
  let spec =
    [ ( "--workload",
        Arg.Symbol (names, fun n -> o.workload <- Some n),
        " run one workload (default: every workload, one child process each)" );
      ("--seed", Arg.Int (fun n -> o.seed <- n), "N workload seed (default 1)");
      ( "--seconds",
        Arg.Float (fun s -> o.seconds <- s),
        "S time passes for at least S seconds (default 20)" );
      ( "--trace",
        Arg.Int
          (function
            | 0 -> o.trace <- false
            | 1 -> o.trace <- true
            | _ -> raise (Arg.Bad "--trace takes 0 or 1")),
        "0|1 1: interleave traced passes and report per-layer metrics" );
      ( "--trace-dir",
        Arg.String
          (fun d ->
            o.trace_dir <- Some d;
            o.trace <- true),
        "DIR write WORKLOAD.trace.json (Chrome/Perfetto) and layers.json; implies --trace 1" );
      ("--jobs", Arg.Int (fun n -> o.jobs <- max 1 n), "N pool workers (default 2)");
      ( "--reps",
        Arg.Int (fun n -> o.reps <- max 1 n),
        "N run at least N passes (default 3)" );
      ( "--size",
        Arg.Symbol
          ([ "smoke"; "full" ], fun s -> o.size <- (if s = "smoke" then Work.Smoke else Work.Full)),
        " program sizes (default full)" );
      ("--out", Arg.String (fun f -> o.out <- Some f), "FILE append one JSON record per workload run");
      ( "--compare",
        Arg.Tuple
          [ Arg.Set_string cmp_a; Arg.String (fun b -> o.compare <- Some (!cmp_a, b)) ],
        "A B paired comparison of two --out files (A = parent, B = change)" ) ]
  in
  let usage = "run.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] ..." in
  Arg.parse (Arg.align spec) (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  Layers.check ();
  match o.compare with
  | Some (a, b) -> exit (Compare.run a b)
  | None ->
      if o.trace && o.reps < 2 then o.reps <- 2;
      Option.iter
        (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755)
        o.trace_dir;
      let correct, result =
        match o.workload with
        | Some name ->
            let w = List.find (fun (w : Work.t) -> w.name = name) workloads in
            let correct, metrics, result = run_workload o w in
            Option.iter (fun d -> write_layers d [ (name, metrics) ]) o.trace_dir;
            (correct, result)
        | None -> run_all o
      in
      print_endline (Json.to_string result);
      exit (if correct then 0 else 1)
