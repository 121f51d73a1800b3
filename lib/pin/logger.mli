(** The PinPlay logger: captures a region of execution as a pinball.

    The program runs natively up to the region start (measured in
    aggregate instructions over all threads, the PinPoints convention),
    a checkpoint of registers, memory and OS-visible state is taken,
    and the region itself then runs under instrumentation that records

    - the initial content of every page the region touches (lean mode)
      or of every mapped page ([-log:fat] mode, [~fat:true]),
    - each system call's result and kernel memory side effects,
    - the thread interleaving actually executed.

    The result replays deterministically under {!Replayer} and converts
    to an ELFie with {!Elfie_core.Pinball2elf}. *)

type region = {
  start : int64;  (** aggregate instruction count at which the region begins *)
  length : int64;  (** aggregate instructions in the region *)
}

(** Raised when the process layout cannot be checkpointed — e.g. a
    thread exited before the region started, leaving a tid gap. *)
exception Unsupported of string

type result = {
  pinball : Elfie_pinball.Pinball.t;
  reached_end : bool;  (** false if the program exited inside the region *)
}

(** [capture ?fat spec ~name region] runs the program and checkpoints
    the region. [fat] defaults to [true] (every pinball meant for ELFie
    conversion must be fat). [scheduler] overrides the interleaving of
    the logging run — Pin-style instrumentation effectively time-slices
    threads finely, which a small-quantum [Free] scheduler models. *)
val capture :
  ?fat:bool ->
  ?scheduler:Elfie_machine.Machine.scheduler ->
  Run.spec ->
  name:string ->
  region ->
  result

(** [capture_many spec requests] checkpoints several (possibly
    overlapping) regions in a single execution of the program — the
    PinPoints batch mode. Results are keyed by request name; regions the
    program ended before reaching are reported with
    [reached_end = false] and a truncated (possibly empty) pinball. *)
val capture_many :
  ?fat:bool ->
  ?scheduler:Elfie_machine.Machine.scheduler ->
  Run.spec ->
  (string * region) list ->
  (string * result) list
