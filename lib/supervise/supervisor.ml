module Trace = Elfie_obs.Trace
module Metrics = Elfie_obs.Metrics

type budget = { ins : int64 option; wall_s : float option }

let unlimited = { ins = None; wall_s = None }

type policy = {
  retries : int;
  backoff_base_s : float;
  backoff_factor : float;
  backoff_max_s : float;
  jitter : float;
  budget_raise : int64;
  base_seed : int64;
}

let default_policy =
  {
    retries = 2;
    backoff_base_s = 0.0;
    backoff_factor = 2.0;
    backoff_max_s = 30.0;
    jitter = 0.25;
    budget_raise = 4L;
    base_seed = 42L;
  }

(* The supervisor's retry delays are an Util.Backoff schedule; the
   policy fields above are its historical spelling. *)
let backoff_policy policy =
  {
    Elfie_util.Backoff.base_s = policy.backoff_base_s;
    factor = policy.backoff_factor;
    max_s = policy.backoff_max_s;
    jitter = policy.jitter;
  }

type watchdog = Wd_none | Wd_wall | Wd_ins

type attempt = {
  attempt_seed : int64;
  classification : Classify.t;
  wall_s : float;
  escalated : bool;
  note : string option;
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
    ~help:"Individual supervised attempts (excluding escalations)"

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
type disposition = Done | Retry | Retry_raised | Escalate | Quarantine

let dispose policy ~attempt_no ~raised = function
  | Classify.Graceful -> Done
  | Stack_collision | Syscall_failure ->
      if attempt_no < policy.retries then Retry else Quarantine
  | Timeout | Runaway -> if raised then Quarantine else Retry_raised
  | Divergence _ -> Escalate
  | Backend_error _ -> Quarantine

let seed_of policy attempt_no =
  Int64.add policy.base_seed (Int64.of_int (1009 * attempt_no))

let backoff policy rng ~attempt_no =
  Elfie_util.Backoff.sleep ~rng (backoff_policy policy) ~attempt:attempt_no

let supervise ~job ?(policy = default_policy) ?(budget = unlimited) ?journal
    ?(resume = true) ?(inputs = []) ?escalate run =
  let inputs_hash = Journal.hash inputs in
  let skip =
    match journal with
    | Some j when resume -> Journal.should_skip j ~job ~inputs_hash
    | Some _ | None -> false
  in
  if skip then begin
    let saved_ms =
      match journal with
      | Some j -> (
          match Journal.find j ~job with
          | Some r -> r.Journal.wall_ms
          | None -> 0.0)
      | None -> 0.0
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
  end
  else begin
    let rng =
      Elfie_util.Rng.create
        (Int64.logxor policy.base_seed (Int64.of_int (Hashtbl.hash job)))
    in
    let attempts = ref [] in
    let push a = attempts := a :: !attempts in
    let t_start = Unix.gettimeofday () in
    let run_escalation cls =
      match escalate with
      | None -> ()
      | Some f -> (
          let esp =
            Trace.begin_span "supervisor.escalate"
              ~attrs:
                [ ("job", Trace.S job); ("from", Trace.S (Classify.to_string cls)) ]
          in
          let t0 = Unix.gettimeofday () in
          match (try f cls with exn -> Some (Classify.of_exn exn, "escalation raised")) with
          | None -> Trace.end_span esp
          | Some (esc_cls, note) ->
              Trace.end_span esp
                ~attrs:[ ("class", Trace.S (Classify.to_string esc_cls)) ];
              push
                {
                  attempt_seed = policy.base_seed;
                  classification = esc_cls;
                  wall_s = Unix.gettimeofday () -. t0;
                  escalated = true;
                  note = Some note;
                })
    in
    let rec go ~attempt_no ~budget ~raised last_value =
      backoff policy rng ~attempt_no;
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
        try run ~attempt_no ~seed ~budget
        with exn -> (None, Classify.of_exn exn)
      in
      Trace.end_span asp
        ~attrs:[ ("class", Trace.S (Classify.to_string cls)) ];
      let value = match value with None -> last_value | some -> some in
      push
        {
          attempt_seed = seed;
          classification = cls;
          wall_s = Unix.gettimeofday () -. t0;
          escalated = false;
          note = None;
        };
      match dispose policy ~attempt_no ~raised cls with
      | Done -> (cls, false, value)
      | Retry -> go ~attempt_no:(attempt_no + 1) ~budget ~raised value
      | Retry_raised ->
          let budget =
            { budget with ins = Option.map (Int64.mul policy.budget_raise) budget.ins }
          in
          go ~attempt_no:(attempt_no + 1) ~budget ~raised:true value
      | Escalate ->
          run_escalation cls;
          (cls, true, value)
      | Quarantine -> (cls, true, value)
    in
    let final, quarantined, value = go ~attempt_no:0 ~budget ~raised:false None in
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
    (match journal with
    | None -> ()
    | Some j ->
        (* Per-attempt breakdown as journal attrs, mirroring the
           supervisor.attempt spans: class and duration of each try. *)
        let attrs =
          List.mapi
            (fun i a ->
              ( Printf.sprintf "%s%d"
                  (if a.escalated then "escalation" else "attempt")
                  i,
                Printf.sprintf "%s:%.0fms"
                  (Classify.to_string a.classification)
                  (a.wall_s *. 1000.0) ))
            report.attempts
        in
        Journal.record j
          {
            Journal.job;
            inputs_hash;
            attempts =
              List.length (List.filter (fun a -> not a.escalated) report.attempts);
            classification = final;
            quarantined;
            wall_ms = total_wall_s *. 1000.0;
            attrs;
          });
    (report, value)
  end

(* Preemptive wall-clock watchdog: a pintool that checks the deadline
   every 4096 retired instructions and stops the machine. Returns the
   fired flag. *)
let install_wall_watchdog machine ~timeout_s =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let fired = ref false in
  let count = ref 0 in
  let tool =
    {
      (Elfie_pin.Pintool.empty ~name:"wall-watchdog") with
      Elfie_pin.Pintool.on_ins =
        Some
          (fun _tid _pc _ins ->
            incr count;
            if
              !count land 4095 = 0
              && (not !fired)
              && Unix.gettimeofday () > deadline
            then begin
              fired := true;
              Elfie_machine.Machine.request_stop machine
            end);
    }
  in
  let (_ : unit -> unit) = Elfie_pin.Pintool.attach machine [ tool ] in
  fired

let run_elfie ~job ?(policy = default_policy) ?(budget = unlimited) ?journal
    ?resume ?inputs ?seed ?fs_init ?cwd ?kernel_cost image =
  let policy =
    match seed with None -> policy | Some s -> { policy with base_seed = s }
  in
  supervise ~job ~policy ~budget ?journal ?resume ?inputs
    (fun ~attempt_no:_ ~seed ~budget ->
      let fired_cell = ref (ref false) in
      let on_machine machine =
        match budget.wall_s with
        | None -> ()
        | Some t -> fired_cell := install_wall_watchdog machine ~timeout_s:t
      in
      let outcome =
        Elfie_core.Elfie_runner.run ~seed ?fs_init ?cwd ?max_ins:budget.ins
          ?kernel_cost ~on_machine image
      in
      let cls =
        match Classify.of_outcome outcome with
        | Classify.Runaway when !(!fired_cell) -> Classify.Timeout
        | cls -> cls
      in
      (Some outcome, cls))

let run_replay ~job ?(policy = default_policy) ?(budget = unlimited) ?journal
    ?resume ?inputs pb =
  let escalate _cls =
    let r =
      Elfie_pin.Replayer.replay
        ~mode:
          (Elfie_pin.Replayer.Injectionless
             { seed = policy.base_seed; fs_init = (fun (_ : Elfie_kernel.Fs.t) -> ()) })
        pb
    in
    let cls = Classify.of_replay r in
    let note =
      match r.Elfie_pin.Replayer.first_divergence with
      | Some d ->
          Printf.sprintf
            "injectionless replay: first divergence tid %d pc=0x%Lx icount=%Ld (%s)"
            d.Elfie_pin.Replayer.div_tid d.div_pc d.div_icount d.div_what
      | None ->
          if r.capped then "injectionless replay hit its instruction cap"
          else "injectionless replay reproduced the region"
    in
    Some (cls, note)
  in
  supervise ~job ~policy ~budget ?journal ?resume ?inputs ~escalate
    (fun ~attempt_no:_ ~seed:_ ~budget ->
      let r = Elfie_pin.Replayer.replay ~mode:Constrained ?max_ins:budget.ins pb in
      (Some r, Classify.of_replay r))

let run_backend ~job ?(policy = default_policy) ?(budget = unlimited) ?journal
    ?resume ?inputs f =
  supervise ~job ~policy ~budget ?journal ?resume ?inputs
    (fun ~attempt_no:_ ~seed ~budget ->
      let v, cls = f ~seed ~max_ins:budget.ins in
      (Some v, cls))

type 'a job_spec = {
  name : string;
  job_inputs : string list;
  exec : seed:int64 -> max_ins:int64 option -> 'a * Classify.t;
}

let run_batch ?(policy = default_policy) ?(budget = unlimited) ?journal ?resume
    specs =
  List.map
    (fun spec ->
      let report, value =
        run_backend ~job:spec.name ~policy ~budget ?journal ?resume
          ~inputs:spec.job_inputs spec.exec
      in
      (spec.name, report, value))
    specs
