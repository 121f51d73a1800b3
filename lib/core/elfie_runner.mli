(** Running ELFies natively.

    Loads an ELFie through the system loader (so stack randomization and
    the collision failure mode apply), lets its startup code rebuild the
    checkpointed state, and executes the embedded region with a freely
    scheduled machine — the "run it like any Linux binary" path of the
    paper.

    Success criterion is the paper's: the run is {e graceful} when every
    thread's armed retired-instruction counter fired (each thread
    executed its recorded region instruction count and exited), rather
    than the ELFie diverging into an uncaptured page or failing a system
    call.

    Failures are reported both as human-readable strings ([load_error],
    [fault]) and as structured fields ([stack_collision],
    [machine_fault], [runaway], [exit_status]) so supervision layers can
    classify an outcome without matching on message text. *)

type outcome = {
  load_error : string option;
      (** loader refused the image (e.g. stack collision) *)
  stack_collision : bool;
      (** the loader failure was specifically a stack collision *)
  graceful : bool;
      (** every armed thread hit its region instruction count or exited
          cleanly via the application's own exit path, {e and} the
          process terminated — an ELFie looping past its fired region
          counters (the hang class) is not graceful *)
  fault : string option;
      (** first thread fault, if any; a run stopped by the [max_ins] cap
          reports ["runaway: max_ins exceeded"] *)
  machine_fault : (Elfie_machine.Machine.fault * int * int64) option;
      (** the first thread fault, structured: the fault, the faulting
          thread id and its retired instruction count at the fault *)
  runaway : bool;
      (** the machine-wide [max_ins] cap stopped a non-graceful run that
          still had runnable threads (divergence into an endless loop) *)
  exit_status : int option;
      (** first armed thread that exited non-zero before its counter
          fired — the ELFie's own "a system call failed" abort path *)
  app_retired : int64;
      (** instructions retired inside the region (post-arm), all threads *)
  app_cycles : int64;  (** wall-clock proxy for the region (max thread) *)
  region_cpi : float;
  slice_cpi : float;
      (** CPI measured from the warmup mark to exit when the ELFie was
          generated with [warmup_mark]; equals [region_cpi] otherwise *)
  total_retired : int64;  (** including startup/monitor overhead *)
  stdout : string;
  threads : int;
}

(** [run image] executes an ELFie natively, charging ring-0 work to the
    machine's timing model as real hardware would.
    @param seed scheduler seed — vary it across trials for MT variation
    @param fs_init install SYSSTATE proxy files before the run
    @param cwd the sysstate workdir the ELFie is executed in
    @param max_ins safety cap for runaway (diverged) executions *)
val run :
  ?seed:int64 ->
  ?fs_init:(Elfie_kernel.Fs.t -> unit) ->
  ?cwd:string ->
  ?max_ins:int64 ->
  Elfie_elf.Image.t ->
  outcome

(** {2 Warm once, fork per trial}

    Repeated-trial region measurement re-executes the same warmup
    before every trial; with copy-on-write machine snapshots the warmup
    runs once. [warm] loads the ELFie and executes it with the given
    seed until its warmup mark fires, then captures the machine
    ({!Elfie_machine.Machine.snapshot} — the address space is frozen
    copy-on-write, nothing is deep-copied) together with the kernel.
    [resume ~seed] forks an independent machine + kernel off that
    capture, re-derives the scheduler/timer RNG streams from [seed]
    (the per-trial variation that distinct full-run seeds used to
    provide) and runs the slice to completion.

    Determinism contract: [resume ~seed w] is bit-identical to warming
    a fresh machine with [w]'s warm seed, calling
    {!Elfie_machine.Machine.reseed} [seed] at the mark stop, and
    continuing — and forks are independent, so trials may fan out
    across pool domains with results identical at any [--jobs].
    Property-tested in [test/test_perf_core.ml].

    [warm] returns [Error outcome] when the run ended without a mark
    firing — image without a warmup boundary, a pre-mark fault, or a
    load failure — with the outcome [run] gives at the same seed and
    budget, recorded in the loader and region metrics as [run] records
    it, so callers take it as that seed's trial and fall back to
    per-trial [run]s for the others. *)

type warmed

val warm :
  ?seed:int64 ->
  ?fs_init:(Elfie_kernel.Fs.t -> unit) ->
  ?cwd:string ->
  ?max_ins:int64 ->
  Elfie_elf.Image.t ->
  (warmed, outcome) result

(** [resume ~seed w] measures one trial off the warmed capture.
    [max_ins] caps the machine-wide total retired count, which includes
    the warmup already executed — pass the same value as [warm] for the
    same cap semantics as a single full run. *)
val resume :
  ?max_ins:int64 ->
  seed:int64 ->
  warmed ->
  outcome

(** Mapped pages frozen in the warmed capture (fork cost reporting). *)
val warmed_pages : warmed -> int
