(* The supervision suite (dune alias @supervise, also part of the
   default test run): end-to-end budget, retry and resume behavior on
   real ELFies and the experiments CLI.

   Covers what the unit tests can only synthesize:
   - a hung ELFie (looping past its fired region counters) stopped by
     the instruction budget, classified Runaway and quarantined after
     exactly one raised-budget retry;
   - a deterministic stack collision recovered by reseeded retries;
   - `experiments --journal`, then `--resume`, skipping the journalled
     experiment without appending to the journal. *)

module Supervisor = Elfie_supervise.Supervisor
module Classify = Elfie_supervise.Classify
module Journal = Elfie_supervise.Journal

let failf fmt = Format.kasprintf (fun s -> Format.printf "FAILED: %s@."s; exit 1) fmt

let capture name =
  let spec =
    Elfie_workloads.Programs.spec
      ~phases:
        [ { kernel = Elfie_workloads.Kernels.Stream; reps = 1500 };
          { kernel = Elfie_workloads.Kernels.Branchy; reps = 1200 } ]
      ~outer_reps:6 ~threads:1 ~ws_bytes:32768 name
  in
  let rs = Elfie_workloads.Programs.run_spec ~seed:42L spec in
  let r =
    Elfie_pin.Logger.capture rs ~name
      { Elfie_pin.Logger.start = 20_000L; length = 30_000L }
  in
  r.Elfie_pin.Logger.pinball

(* [pb] converted into an ELFie whose exit path spins forever: the region
   counters fire as usual, but the process loops past them and never
   exits. Only the instruction budget can stop it, after which it
   classifies as a runaway. *)
let hang_elfie pb =
  let spin b =
    let loop = Elfie_isa.Builder.here ~name:"hang" b in
    Elfie_isa.Builder.ins b Elfie_isa.Insn.Pause;
    Elfie_isa.Builder.jmp b loop
  in
  Elfie_core.Pinball2elf.convert
    ~options:
      { Elfie_core.Pinball2elf.default_options with extra_on_exit = Some spin }
    pb

let test_hang_runaway pb =
  let image = hang_elfie pb in
  let report, outcome =
    Supervisor.run_elfie ~job:"hang" ~max_ins:500_000L image
  in
  (match outcome with
  | Some o ->
      if o.Elfie_core.Elfie_runner.graceful then
        failf "hung ELFie reported graceful";
      if not o.runaway then failf "hung ELFie not flagged runaway";
      if o.fault <> Some "runaway: max_ins exceeded" then
        failf "hung ELFie fault is %s"
          (Option.value ~default:"<none>" o.fault)
  | None -> failf "hang produced no outcome");
  (match report.Supervisor.final with
  | Classify.Runaway -> ()
  | c -> failf "hang classified %s, expected runaway" (Classify.to_string c));
  if not report.quarantined then failf "hang not quarantined";
  let n = List.length report.attempts in
  if n <> 2 then
    failf "hang ran %d attempt(s), expected 2 (one raised-budget retry)" n;
  Format.printf "hang: %a@." Supervisor.pp_report report

let test_collision_reseed pb =
  (* Allocatable stack sections (the historical bug) at the capture seed:
     the collision is deterministic on attempt 0, so recovery must come
     from the supervisor's reseeded retries. *)
  let image =
    Elfie_core.Pinball2elf.convert
      ~options:
        { Elfie_core.Pinball2elf.default_options with
          alloc_stack_sections = true }
      pb
  in
  let policy = { Supervisor.retries = 6; base_seed = 42L } in
  let report, _ = Supervisor.run_elfie ~job:"collide" ~policy image in
  (match report.Supervisor.attempts with
  | { classification = Classify.Stack_collision; _ } :: _ -> ()
  | a :: _ ->
      failf "first attempt classified %s, expected stack-collision"
        (Classify.to_string a.classification)
  | [] -> failf "no attempts recorded");
  (match report.Supervisor.final with
  | Classify.Graceful -> ()
  | c -> failf "collision job ended %s, expected graceful recovery"
           (Classify.to_string c));
  if report.quarantined then failf "recovered collision job quarantined";
  if List.length report.attempts < 2 then
    failf "collision recovered without any retry";
  Format.printf "collide: %a@." Supervisor.pp_report report

let experiments_exe =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    "../../bin/experiments.exe"

(* Run the experiments CLI to completion; its stdout, or a failure. *)
let run_experiments args =
  let out = Filename.temp_file "experiments" ".out" in
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process experiments_exe
      (Array.of_list (experiments_exe :: args))
      Unix.stdin fd Unix.stderr
  in
  Unix.close fd;
  let _, status = Unix.waitpid [] pid in
  let text = In_channel.with_open_bin out In_channel.input_all in
  Sys.remove out;
  if status <> Unix.WEXITED 0 then
    failf "experiments %s did not exit 0:@.%s" (String.concat " " args) text;
  text

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1))
  in
  go 0

(* The batch loop of bin/experiments end to end: a journalled run writes
   one graceful record, and a resumed run skips the experiment and
   appends nothing. *)
let test_experiments_resume () =
  let journal = Filename.temp_file "experiments" ".j" in
  Sys.remove journal;
  ignore (run_experiments [ "table4"; "--journal"; journal ]);
  let written = In_channel.with_open_bin journal In_channel.input_all in
  (match String.split_on_char '\n' written with
  | [ line; "" ] -> (
      match Journal.record_of_line line with
      | Some
          {
            job = "table4";
            attempts = 1;
            classification = Classify.Graceful;
            quarantined = false;
            attrs = [ ("attempt0", a0) ];
            _;
          }
        when String.starts_with ~prefix:"graceful:" a0 ->
          ()
      | _ -> failf "unexpected journal record %S" line)
  | _ -> failf "expected one journal record, got %S" written);
  let out = run_experiments [ "table4"; "--journal"; journal; "--resume" ] in
  List.iter
    (fun needle ->
      if not (contains out needle) then
        failf "resumed run lacks %S:@.%s" needle out)
    [ "=== table4: skipped (journalled graceful) ===";
      "resume: skipped 1 experiment(s)" ];
  if In_channel.with_open_bin journal In_channel.input_all <> written then
    failf "resumed run appended to the journal";
  Sys.remove journal;
  Format.printf "experiments resume: table4 skipped@."

let () =
  let pb = capture "suppb" in
  test_hang_runaway pb;
  test_collision_reseed pb;
  test_experiments_resume ();
  Format.printf "supervise suite passed@."
