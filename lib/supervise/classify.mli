(** Crash classification: the closed outcome taxonomy of supervised
    execution.

    Every supervised execution path — native ELFie runs
    ({!Elfie_core.Elfie_runner}), region measurements and the simulator
    backends — folds into exactly one of these constructors. No raw string faults
    escape to callers: the supervisor retry policy, the experiment
    journal and the degradations audit trail all speak this type.

    The taxonomy follows the paper's failure analysis of ELFies
    (Section II-B3): a fired region counter is success ([Graceful]); the
    known failure modes are a load-time stack collision, divergence into
    uncaptured state, and a failing system call; a tripped instruction
    budget is [Runaway]; anything else is an opaque [Backend_error]. *)

type t =
  | Graceful  (** the region counter(s) fired — the paper's success *)
  | Stack_collision
      (** the loader could not reserve a stack under the randomized top *)
  | Divergence of { pc : int64; icount : int64 }
      (** execution left the recorded region: first divergent program
          counter and the retired instruction count at that point *)
  | Syscall_failure
      (** the ELFie aborted because a system call failed (non-zero exit
          before the region counter fired) *)
  | Runaway  (** the instruction budget ([max_ins]) stopped the run *)
  | Backend_error of string  (** any other failure, quarantined as-is *)

(** Stable, parseable rendering (inverse of {!of_string}); used by the
    journal and in reports. *)
val to_string : t -> string

(** Parse {!to_string} output. [None] on malformed input. *)
val of_string : string -> t option

val pp : Format.formatter -> t -> unit

val is_graceful : t -> bool

(** Percent-escape a string into a single tab/newline-free token;
    inverse of {!unescape}. Shared with the journal's tab-separated
    line format. *)
val escape : string -> string

val unescape : string -> string

(** Classify a native ELFie run. Uses only the structured outcome
    fields, never the message strings. *)
val of_outcome : Elfie_core.Elfie_runner.outcome -> t

(** Classify an exception escaping an execution backend:
    [Loader.Stack_collision] and structured diagnostics keep their
    class, everything else becomes [Backend_error]. *)
val of_exn : exn -> t
