(** Supervised job execution: an instruction budget, classification-driven
    retry, and journalled results.

    Every attempt of a supervised job runs under one budget, the
    machine-wide retired-instruction limit ([max_ins]). An attempt
    stopped by it (while the region counters never fired) classifies as
    {!Classify.Runaway}. A fired region counter is the success criterion
    ({!Classify.Graceful}); a tripped budget is never success.

    Retry policy, by classification of the failed attempt:

    - [Stack_collision] / [Syscall_failure]: transient under address
      randomization — retry up to {!policy.retries} times with a fresh
      seed (re-seeding the loader's stack randomization);
    - [Runaway]: retried {e once} with the instruction budget raised ×4,
      then quarantined;
    - [Divergence] / [Backend_error]: quarantined immediately.

    Quarantined jobs are recorded in the journal (and the caller's
    degradations trail) and never crash the batch. *)

type policy = {
  retries : int;  (** max re-seeded retries for transient classes *)
  base_seed : int64;
      (** seed of attempt 0; attempt [n] runs with
          [base_seed + 1009 * n], matching the harness's historical
          seed-retry schedule *)
}

(** [retries = 2], [base_seed = 42]. *)
val default_policy : policy

type attempt = {
  attempt_seed : int64;
  classification : Classify.t;
  wall_s : float;
}

type report = {
  job : string;
  final : Classify.t;  (** classification of the last attempt *)
  quarantined : bool;
  skipped : bool;  (** satisfied from the journal; nothing was run *)
  attempts : attempt list;  (** oldest first *)
  total_wall_s : float;
}

val pp_report : Format.formatter -> report -> unit

(** Resume accounting for this process: how many supervised jobs were
    skipped because the journal already marked them graceful, and the
    estimated wall milliseconds those skips saved (the journaled wall
    time of each skipped job). Backed by the
    [elfie_journal_skips_total] / [elfie_journal_saved_ms_total]
    metrics; batch drivers print it after a [--resume] run. *)
val resume_savings : unit -> int * float

(** [supervise ~job run] drives [run] through the retry loop above.
    [run ~seed ~max_ins] performs one attempt — [max_ins] is the
    instruction budget, already raised on a runaway retry ([None]: the
    backend's own cap) — and returns the attempt's value and
    classification; exceptions it raises are classified via
    {!Classify.of_exn}. When [journal] is given, every non-skipped
    job's result is appended to it; when [resume] is also true (the
    default), a job whose latest record is graceful for the same
    [inputs] hash is skipped without running. The returned value is the
    last attempt's that did not raise ([None] when skipped or when
    every attempt raised). *)
val supervise :
  job:string ->
  ?policy:policy ->
  ?max_ins:int64 ->
  ?journal:Journal.t ->
  ?resume:bool ->
  ?inputs:string list ->
  (seed:int64 -> max_ins:int64 option -> 'a * Classify.t) ->
  report * 'a option

(** Supervised native ELFie execution: {!supervise} over
    {!Elfie_core.Elfie_runner.run}, classified by
    {!Classify.of_outcome}. *)
val run_elfie :
  job:string ->
  ?policy:policy ->
  ?max_ins:int64 ->
  ?journal:Journal.t ->
  ?resume:bool ->
  ?inputs:string list ->
  ?fs_init:(Elfie_kernel.Fs.t -> unit) ->
  ?cwd:string ->
  Elfie_elf.Image.t ->
  report * Elfie_core.Elfie_runner.outcome option
