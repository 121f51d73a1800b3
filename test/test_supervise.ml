(* Unit tests for the supervised execution layer: classification
   round-trips, journal persistence and torn-write tolerance, the retry
   loop's dispositions (synthetic jobs, no machine execution), and
   resume from a truncated journal. *)

module Supervisor = Elfie_supervise.Supervisor
module Journal = Elfie_supervise.Journal
module Classify = Elfie_supervise.Classify

let all_classes =
  [
    Classify.Graceful;
    Classify.Stack_collision;
    Classify.Divergence { pc = 0xdead_beefL; icount = 123_456L };
    Classify.Syscall_failure;
    Classify.Runaway;
    Classify.Backend_error "plain message";
    Classify.Backend_error "tabs\tnewlines\nand %25 signs";
  ]

let test_classify_roundtrip () =
  List.iter
    (fun c ->
      let s = Classify.to_string c in
      String.iter
        (fun ch ->
          if ch = '\t' || ch = '\n' then
            Alcotest.fail "separator leaked into rendering")
        s;
      match Classify.of_string s with
      | Some c' -> Alcotest.(check bool) ("roundtrip " ^ s) true (c = c')
      | None -> Alcotest.fail ("unparseable: " ^ s))
    all_classes;
  Alcotest.(check bool) "garbage rejected" true
    (Classify.of_string "no-such-class" = None);
  Alcotest.(check bool) "bad divergence rejected" true
    (Classify.of_string "divergence:pc=zzz" = None)

let record c =
  {
    Journal.job = "bench_c0_r0";
    inputs_hash = Journal.hash [ "a"; "b" ];
    attempts = 2;
    classification = c;
    quarantined = (not (Classify.is_graceful c));
    wall_ms = 12.5;
    attrs = [];
  }

let test_journal_line_roundtrip () =
  List.iter
    (fun c ->
      let r = record c in
      match Journal.record_of_line (Journal.line_of_record r) with
      | Some r' -> Alcotest.(check bool) "record roundtrip" true (r = r')
      | None -> Alcotest.fail "journal line did not parse")
    all_classes;
  Alcotest.(check bool) "torn line ignored" true
    (Journal.record_of_line "J1\tjob\tdeadbeef\t2\tgrace" = None);
  Alcotest.(check bool) "wrong magic ignored" true
    (Journal.record_of_line "J9\tjob\tx\t1\tgraceful\t0\t1.0" = None)

let test_journal_attrs_roundtrip () =
  let r =
    {
      (record Classify.Graceful) with
      Journal.attrs =
        [
          ("attempt0", "runaway:813ms");
          ("attempt1", "graceful:42ms");
          ("nasty", "tabs\tcommas,equals=and %25 signs");
        ];
    }
  in
  let line = Journal.line_of_record r in
  Alcotest.(check bool) "attrs line stays single-line" false
    (String.contains line '\n');
  (match Journal.record_of_line line with
  | Some r' -> Alcotest.(check bool) "attrs roundtrip" true (r = r')
  | None -> Alcotest.fail "attrs line did not parse");
  (* A pre-attrs (7-field) line still parses, with empty attrs. *)
  match Journal.record_of_line (Journal.line_of_record (record Classify.Graceful)) with
  | Some r' -> Alcotest.(check bool) "7-field line parses" true (r'.Journal.attrs = [])
  | None -> Alcotest.fail "7-field line did not parse"

let test_journal_file_tolerant_and_latest_wins () =
  let path = Filename.temp_file "elfie_journal" ".j" in
  let j = Journal.open_file path in
  let h = Journal.hash [ "x" ] in
  Journal.record j
    { (record Classify.Runaway) with job = "a"; inputs_hash = h };
  Journal.record j
    { (record Classify.Graceful) with job = "a"; inputs_hash = h; quarantined = false };
  Journal.close j;
  (* Simulate a writer killed mid-record: append half a line. *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "J1\tb\tdeadbeef\t1\tgrace";
  close_out oc;
  let j2 = Journal.open_file path in
  Alcotest.(check int) "torn record dropped" 2 (List.length (Journal.records j2));
  Alcotest.(check bool) "latest record wins, graceful skips" true
    (Journal.should_skip j2 ~job:"a" ~inputs_hash:h);
  Alcotest.(check bool) "changed inputs re-run" false
    (Journal.should_skip j2 ~job:"a" ~inputs_hash:(Journal.hash [ "y" ]));
  Alcotest.(check bool) "unknown job runs" false
    (Journal.should_skip j2 ~job:"b" ~inputs_hash:h);
  Journal.close j2;
  Sys.remove path

(* A torn FIRST line — not just a torn trailing one: e.g. the head of the
   file was clobbered by a partial copy, or an older writer died on its
   very first record. Every later record must still load. *)
let test_journal_torn_first_line () =
  let path = Filename.temp_file "elfie_journal_first" ".j" in
  let h = Journal.hash [ "x" ] in
  let oc = open_out_bin path in
  output_string oc "J1\tfirst\tdeadbeef\t1\tgrace";
  output_char oc '\n';
  output_string oc
    (Journal.line_of_record
       { (record Classify.Graceful) with job = "a"; inputs_hash = h;
         quarantined = false });
  output_char oc '\n';
  output_string oc
    (Journal.line_of_record
       { (record Classify.Runaway) with job = "b"; inputs_hash = h });
  output_char oc '\n';
  close_out oc;
  let j = Journal.open_file path in
  Alcotest.(check int) "torn first line dropped, rest kept" 2
    (List.length (Journal.records j));
  Alcotest.(check bool) "later graceful record still skips" true
    (Journal.should_skip j ~job:"a" ~inputs_hash:h);
  Alcotest.(check bool) "torn job does not skip" false
    (Journal.should_skip j ~job:"first" ~inputs_hash:h);
  Journal.close j;
  Sys.remove path

let test_retry_reseeds_collisions () =
  let seeds = ref [] in
  let report, value =
    Supervisor.supervise ~job:"reseed"
      ~policy:{ Supervisor.retries = 3; base_seed = 100L }
      (fun ~seed ~max_ins:_ ->
        seeds := seed :: !seeds;
        if List.length !seeds < 3 then ("collided", Classify.Stack_collision)
        else ("ok", Classify.Graceful))
  in
  Alcotest.(check bool) "graceful" true (report.Supervisor.final = Classify.Graceful);
  Alcotest.(check bool) "not quarantined" false report.quarantined;
  Alcotest.(check int) "three attempts" 3 (List.length report.attempts);
  Alcotest.(check (option string)) "value" (Some "ok") value;
  Alcotest.(check (list Tutil.i64)) "reseed schedule"
    [ 100L; 1109L; 2118L ] (List.rev !seeds)

let test_retry_budget_exhausted_quarantines () =
  let report, _ =
    Supervisor.supervise ~job:"always-collides"
      ~policy:{ Supervisor.default_policy with retries = 2 }
      (fun ~seed:_ ~max_ins:_ -> ((), Classify.Stack_collision))
  in
  Alcotest.(check bool) "quarantined" true report.Supervisor.quarantined;
  Alcotest.(check int) "retries + 1 attempts" 3 (List.length report.attempts);
  Alcotest.(check bool) "final is collision" true
    (report.final = Classify.Stack_collision)

let test_runaway_raises_budget_once () =
  let budgets = ref [] in
  let report, _ =
    Supervisor.supervise ~job:"runaway" ~max_ins:100L
      (fun ~seed:_ ~max_ins ->
        budgets := max_ins :: !budgets;
        ((), Classify.Runaway))
  in
  Alcotest.(check bool) "quarantined" true report.Supervisor.quarantined;
  Alcotest.(check int) "one raised retry" 2 (List.length report.attempts);
  Alcotest.(check (list (option Tutil.i64)))
    "budget raised x4" [ Some 100L; Some 400L ] (List.rev !budgets)

let test_backend_error_immediate_quarantine () =
  let runs = ref 0 in
  let report, _ =
    Supervisor.supervise ~job:"broken"
      (fun ~seed:_ ~max_ins:_ ->
        incr runs;
        ((), Classify.Backend_error "unusable artifact"))
  in
  Alcotest.(check int) "no retries" 1 !runs;
  Alcotest.(check bool) "quarantined" true report.Supervisor.quarantined

let test_exception_is_classified () =
  let report, value =
    Supervisor.supervise ~job:"raises"
      (fun ~seed:_ ~max_ins:_ -> failwith "boom")
  in
  Alcotest.(check bool) "no exception escapes, quarantined" true
    report.Supervisor.quarantined;
  (match report.final with
  | Classify.Backend_error _ -> ()
  | c ->
      Alcotest.failf "expected backend-error, got %s" (Classify.to_string c));
  Alcotest.(check bool) "no value" true (value = None)

let test_divergence_quarantines () =
  let runs = ref 0 in
  let report, _ =
    Supervisor.supervise ~job:"div" (fun ~seed:_ ~max_ins:_ ->
        incr runs;
        ((), Classify.Divergence { pc = 0x1000L; icount = 7L }))
  in
  Alcotest.(check int) "no retries" 1 !runs;
  Alcotest.(check int) "one attempt" 1 (List.length report.Supervisor.attempts);
  Alcotest.(check bool) "quarantined" true report.quarantined

(* Durability: every record is flushed (and fsynced) before [record]
   returns, so a second reader sees it while the writer is still open,
   and a partially written trailing record is torn-line tolerant on
   reload. *)
let test_journal_fsync_torn_tail () =
  let path = Filename.temp_file "elfie_journal_sync" ".j" in
  let j = Journal.open_file path in
  let h = Journal.hash [ "x" ] in
  for i = 1 to 5 do
    Journal.record j
      { (record Classify.Graceful) with job = Printf.sprintf "j%d" i;
        inputs_hash = h }
  done;
  let j_read = Journal.open_file path in
  Alcotest.(check int) "all records flushed" 5
    (List.length (Journal.records j_read));
  Journal.close j_read;
  Journal.close j;
  (* A writer killed mid-append leaves a torn tail after the fsynced
     prefix; reload keeps the durable records and drops the tail. *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "J1\tj6\tdeadbeef\t1\tgr";
  close_out oc;
  let j2 = Journal.open_file path in
  Alcotest.(check int) "torn tail dropped, durable prefix kept" 5
    (List.length (Journal.records j2));
  Alcotest.(check bool) "durable record skips" true
    (Journal.should_skip j2 ~job:"j3" ~inputs_hash:h);
  Alcotest.(check bool) "torn record does not skip" false
    (Journal.should_skip j2 ~job:"j6" ~inputs_hash:h);
  Journal.close j2;
  Sys.remove path

(* The interrupted-batch scenario: run a batch through a journal, kill
   the writer mid-record (truncate), then resume — journalled-graceful
   jobs are skipped, the interrupted/failed ones re-run exactly once. *)
let test_batch_resume_after_truncation () =
  let path = Filename.temp_file "elfie_batch" ".j" in
  Sys.remove path;
  let runs : (string, int) Hashtbl.t = Hashtbl.create 4 in
  let count name =
    Hashtbl.replace runs name (1 + Option.value ~default:0 (Hashtbl.find_opt runs name))
  in
  let first = ref true in
  let jobs =
    [
      ("ok1", fun () -> Classify.Graceful);
      ("ok2", fun () -> Classify.Graceful);
      ( "flaky",
        fun () ->
          if !first then Classify.Backend_error "first run dies"
          else Classify.Graceful );
    ]
  in
  let batch journal =
    List.map
      (fun (name, cls) ->
        Supervisor.supervise ~job:name ~journal ~inputs:[ name ]
          (fun ~seed:_ ~max_ins:_ ->
            count name;
            (name, cls ())))
      jobs
  in
  let j = Journal.open_file path in
  let results = batch j in
  Journal.close j;
  Alcotest.(check int) "first batch: all ran" 3 (Hashtbl.length runs);
  Alcotest.(check bool) "flaky quarantined" true
    (match results with [ _; _; (r, _) ] -> r.Supervisor.quarantined | _ -> false);
  (* Kill mid-write: chop the tail of the last (flaky) record. *)
  let ic = open_in_bin path in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let oc = open_out_bin path in
  output_string oc (String.sub contents 0 (String.length contents - 10));
  close_out oc;
  first := false;
  let j2 = Journal.open_file path in
  let results2 = batch j2 in
  Journal.close j2;
  Sys.remove path;
  let ran name = Option.value ~default:0 (Hashtbl.find_opt runs name) in
  Alcotest.(check int) "ok1 skipped on resume" 1 (ran "ok1");
  Alcotest.(check int) "ok2 skipped on resume" 1 (ran "ok2");
  Alcotest.(check int) "flaky re-ran exactly once" 2 (ran "flaky");
  (match results2 with
  | [ (r1, _); (r2, _); (r3, v3) ] ->
      Alcotest.(check bool) "ok1 skipped flag" true r1.Supervisor.skipped;
      Alcotest.(check bool) "ok2 skipped flag" true r2.Supervisor.skipped;
      Alcotest.(check bool) "flaky ran" false r3.Supervisor.skipped;
      Alcotest.(check bool) "flaky now graceful" true
        (r3.Supervisor.final = Classify.Graceful);
      Alcotest.(check (option string)) "flaky value" (Some "flaky") v3
  | _ -> Alcotest.fail "unexpected batch shape")

(* What [supervise] writes through a journal: one record per job, keyed
   by the inputs hash, with the attempt count, the final class and one
   class:duration attr per attempt. A syscall failure is retried like a
   collision. *)
let test_supervise_journal_record () =
  let path = Filename.temp_file "elfie_journal_rec" ".j" in
  let j = Journal.open_file path in
  let tries = ref 0 in
  let report, _ =
    Supervisor.supervise ~job:"rec" ~journal:j ~inputs:[ "img"; "seed" ]
      (fun ~seed:_ ~max_ins:_ ->
        incr tries;
        ((), if !tries = 1 then Classify.Syscall_failure else Classify.Graceful))
  in
  Journal.close j;
  Alcotest.(check bool) "syscall failure retried to graceful" true
    (report.Supervisor.final = Classify.Graceful && not report.quarantined);
  let reread = Journal.open_file path in
  let records = Journal.records reread in
  Journal.close reread;
  Sys.remove path;
  match records with
  | [ r ] ->
      Alcotest.(check string) "job" "rec" r.Journal.job;
      Alcotest.(check string) "inputs hash"
        (Journal.hash [ "img"; "seed" ])
        r.inputs_hash;
      Alcotest.(check int) "attempts" 2 r.attempts;
      Alcotest.(check bool) "graceful, not quarantined" true
        (r.classification = Classify.Graceful && not r.quarantined);
      let starts_with p s =
        String.length s >= String.length p
        && String.sub s 0 (String.length p) = p
      in
      (match r.attrs with
      | [ ("attempt0", a0); ("attempt1", a1) ] ->
          Alcotest.(check bool) ("attempt0 " ^ a0) true
            (starts_with "syscall-failure:" a0);
          Alcotest.(check bool) ("attempt1 " ^ a1) true
            (starts_with "graceful:" a1)
      | _ -> Alcotest.fail "expected attempt0 and attempt1 attrs")
  | rs -> Alcotest.failf "expected one record, got %d" (List.length rs)

(* Resume skips a job only when its latest record is graceful for the
   same inputs: a skip runs nothing, returns no value and is counted in
   [resume_savings]; [~resume:false] and changed inputs both run again
   and append a record. *)
let test_supervise_resume_rules () =
  let path = Filename.temp_file "elfie_journal_resume" ".j" in
  let j = Journal.open_file path in
  let runs = ref 0 in
  let job ?resume inputs =
    Supervisor.supervise ~job:"r" ~journal:j ?resume ~inputs
      (fun ~seed:_ ~max_ins:_ ->
        incr runs;
        (!runs, Classify.Graceful))
  in
  ignore (job [ "a" ]);
  let journalled_ms =
    match Journal.find j ~job:"r" with
    | Some r -> r.Journal.wall_ms
    | None -> Alcotest.fail "first run not journalled"
  in
  let skips0, saved0 = Supervisor.resume_savings () in
  let report, value = job [ "a" ] in
  let skips1, saved1 = Supervisor.resume_savings () in
  Alcotest.(check bool) "same inputs skipped" true report.Supervisor.skipped;
  Alcotest.(check int) "nothing ran" 1 !runs;
  Alcotest.(check (option int)) "no value" None value;
  Alcotest.(check int) "no attempts" 0 (List.length report.attempts);
  Alcotest.(check int) "one skip counted" 1 (skips1 - skips0);
  Alcotest.(check (float 1e-6)) "journalled wall time saved" journalled_ms
    (saved1 -. saved0);
  let report, value = job ~resume:false [ "a" ] in
  Alcotest.(check bool) "resume:false runs" false report.skipped;
  Alcotest.(check (option int)) "resume:false value" (Some 2) value;
  let report, _ = job [ "b" ] in
  Alcotest.(check bool) "changed inputs run" false report.skipped;
  Alcotest.(check int) "two re-runs" 3 !runs;
  Alcotest.(check int) "one record per run" 3 (List.length (Journal.records j));
  Journal.close j;
  Sys.remove path

(* The native-ELFie wrapper end to end: a budget of half the ELFie's
   retired count stops attempt 0 as Runaway; the x4 retry, at the next
   seed of the schedule, completes and returns that run's outcome. *)
let test_run_elfie_raised_budget () =
  let module Runner = Elfie_core.Elfie_runner in
  let image = Elfie_core.Pinball2elf.convert (Tutil.tiny_pinball "supervised") in
  let full = Runner.run ~seed:42L image in
  Alcotest.(check bool) "unbudgeted run graceful" true full.graceful;
  let budget = Int64.div full.total_retired 2L in
  let report, outcome = Supervisor.run_elfie ~job:"elfie" ~max_ins:budget image in
  Alcotest.(check (list string)) "runaway, then graceful"
    [ "runaway"; "graceful" ]
    (List.map
       (fun a -> Classify.to_string a.Supervisor.classification)
       report.Supervisor.attempts);
  Alcotest.(check (list Tutil.i64)) "policy seeds" [ 42L; 1051L ]
    (List.map (fun a -> a.Supervisor.attempt_seed) report.attempts);
  Alcotest.(check bool) "not quarantined" false report.quarantined;
  let retry = Runner.run ~seed:1051L ~max_ins:(Int64.mul 4L budget) image in
  Alcotest.(check bool) "value is the raised retry's outcome" true
    (match outcome with Some o -> compare o retry = 0 | None -> false)

let suite =
  [
    Alcotest.test_case "classify roundtrip" `Quick test_classify_roundtrip;
    Alcotest.test_case "journal line roundtrip" `Quick test_journal_line_roundtrip;
    Alcotest.test_case "journal attrs roundtrip" `Quick
      test_journal_attrs_roundtrip;
    Alcotest.test_case "journal torn write / latest wins" `Quick
      test_journal_file_tolerant_and_latest_wins;
    Alcotest.test_case "journal torn first line" `Quick
      test_journal_torn_first_line;
    Alcotest.test_case "journal fsync per record + torn tail" `Quick
      test_journal_fsync_torn_tail;
    Alcotest.test_case "retry reseeds collisions" `Quick
      test_retry_reseeds_collisions;
    Alcotest.test_case "retry budget exhausted" `Quick
      test_retry_budget_exhausted_quarantines;
    Alcotest.test_case "runaway raises budget once" `Quick
      test_runaway_raises_budget_once;
    Alcotest.test_case "backend error quarantines" `Quick
      test_backend_error_immediate_quarantine;
    Alcotest.test_case "exceptions classified" `Quick test_exception_is_classified;
    Alcotest.test_case "divergence quarantines" `Quick
      test_divergence_quarantines;
    Alcotest.test_case "batch resume after truncation" `Quick
      test_batch_resume_after_truncation;
    Alcotest.test_case "journal record per supervised job" `Quick
      test_supervise_journal_record;
    Alcotest.test_case "resume skips only graceful same-input jobs" `Quick
      test_supervise_resume_rules;
    Alcotest.test_case "run_elfie: runaway retry at x4 budget" `Quick
      test_run_elfie_raised_budget;
  ]
