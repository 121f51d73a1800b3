module Trace = Elfie_obs.Trace
module Metrics = Elfie_obs.Metrics

type policy = { retries : int; base_seed : int64 }

let default_policy = { retries = 2; base_seed = 42L }

(* A runaway's single retry runs under this multiple of its budget. *)
let budget_raise = 4L

type attempt = {
  attempt_seed : int64;
  classification : Classify.t;
  wall_s : float;
}

type report = {
  job : string;
  final : Classify.t;
  quarantined : bool;
  skipped : bool;
  attempts : attempt list;
  total_wall_s : float;
}

let pp_report fmt r =
  Format.fprintf fmt "%s: %a (%s%d attempt%s, %.0f ms)" r.job Classify.pp
    r.final
    (if r.skipped then "skipped, "
     else if r.quarantined then "quarantined, "
     else "")
    (List.length r.attempts)
    (if List.length r.attempts = 1 then "" else "s")
    (r.total_wall_s *. 1000.0)

let m_runs =
  Metrics.counter "elfie_runs_total"
    ~help:"Supervised jobs finished, by final crash class"

let m_attempts =
  Metrics.counter "elfie_run_attempts_total"
    ~help:"Individual supervised attempts"

let m_retries =
  Metrics.counter "elfie_retry_attempts_total"
    ~help:"Attempts beyond the first for a supervised job"

let m_wall =
  Metrics.histogram "elfie_run_wall_seconds"
    ~help:"Wall time per supervised job, all attempts included"

let m_journal_skips =
  Metrics.counter "elfie_journal_skips_total"
    ~help:"Jobs skipped on --resume because the journal marks them done"

let m_journal_saved_ms =
  Metrics.counter "elfie_journal_saved_ms_total"
    ~help:"Estimated wall milliseconds saved by --resume skips \
           (the journaled wall time of each skipped job)"

let resume_savings () =
  ( int_of_float (Metrics.total m_journal_skips),
    Metrics.total m_journal_saved_ms )

(* What the retry loop does with a classified attempt. *)
type disposition = Done | Retry | Retry_raised | Quarantine

let dispose policy ~attempt_no ~raised = function
  | Classify.Graceful -> Done
  | Stack_collision | Syscall_failure ->
      if attempt_no < policy.retries then Retry else Quarantine
  | Runaway -> if raised then Quarantine else Retry_raised
  | Divergence _ | Backend_error _ -> Quarantine

let seed_of policy attempt_no =
  Int64.add policy.base_seed (Int64.of_int (1009 * attempt_no))

let skip journal ~job =
  let saved_ms =
    match Journal.find journal ~job with Some r -> r.Journal.wall_ms | None -> 0.0
  in
  Metrics.inc m_journal_skips;
  Metrics.inc m_journal_saved_ms ~by:saved_ms;
  Trace.instant "supervisor.resume_skip"
    ~attrs:[ ("job", Trace.S job); ("saved_ms", Trace.F saved_ms) ];
  ( {
      job;
      final = Classify.Graceful;
      quarantined = false;
      skipped = true;
      attempts = [];
      total_wall_s = 0.0;
    },
    None )

let supervise ~job ?(policy = default_policy) ?max_ins ?journal
    ?(resume = true) ?(inputs = []) run =
  let inputs_hash = Journal.hash inputs in
  match journal with
  | Some j when resume && Journal.should_skip j ~job ~inputs_hash -> skip j ~job
  | _ ->
      let attempts = ref [] in
      let t_start = Unix.gettimeofday () in
      let rec go ~attempt_no ~max_ins ~raised last_value =
        let seed = seed_of policy attempt_no in
        Metrics.inc m_attempts;
        if attempt_no > 0 then Metrics.inc m_retries;
        let asp =
          Trace.begin_span "supervisor.attempt"
            ~attrs:
              [
                ("job", Trace.S job);
                ("attempt", Trace.I (Int64.of_int attempt_no));
                ("seed", Trace.I seed);
              ]
        in
        let t0 = Unix.gettimeofday () in
        let value, cls =
          match run ~seed ~max_ins with
          | v, cls -> (Some v, cls)
          | exception exn -> (last_value, Classify.of_exn exn)
        in
        Trace.end_span asp
          ~attrs:[ ("class", Trace.S (Classify.to_string cls)) ];
        attempts :=
          {
            attempt_seed = seed;
            classification = cls;
            wall_s = Unix.gettimeofday () -. t0;
          }
          :: !attempts;
        match dispose policy ~attempt_no ~raised cls with
        | Done -> (cls, false, value)
        | Quarantine -> (cls, true, value)
        | Retry -> go ~attempt_no:(attempt_no + 1) ~max_ins ~raised value
        | Retry_raised ->
            go ~attempt_no:(attempt_no + 1)
              ~max_ins:(Option.map (Int64.mul budget_raise) max_ins)
              ~raised:true value
      in
      let final, quarantined, value =
        go ~attempt_no:0 ~max_ins ~raised:false None
      in
      let total_wall_s = Unix.gettimeofday () -. t_start in
      let report =
        {
          job;
          final;
          quarantined;
          skipped = false;
          attempts = List.rev !attempts;
          total_wall_s;
        }
      in
      Metrics.inc m_runs ~labels:[ ("class", Classify.to_string final) ];
      Metrics.observe m_wall total_wall_s;
      Option.iter
        (fun j ->
          (* Per-attempt breakdown as journal attrs, mirroring the
             supervisor.attempt spans: class and duration of each try. *)
          let attrs =
            List.mapi
              (fun i a ->
                ( Printf.sprintf "attempt%d" i,
                  Printf.sprintf "%s:%.0fms"
                    (Classify.to_string a.classification)
                    (a.wall_s *. 1000.0) ))
              report.attempts
          in
          Journal.record j
            {
              Journal.job;
              inputs_hash;
              attempts = List.length report.attempts;
              classification = final;
              quarantined;
              wall_ms = total_wall_s *. 1000.0;
              attrs;
            })
        journal;
      (report, value)

let run_elfie ~job ?policy ?max_ins ?journal ?resume ?inputs ?fs_init ?cwd
    image =
  supervise ~job ?policy ?max_ins ?journal ?resume ?inputs
    (fun ~seed ~max_ins ->
      let outcome =
        Elfie_core.Elfie_runner.run ~seed ?fs_init ?cwd ?max_ins image
      in
      (outcome, Classify.of_outcome outcome))
