(** Structured diagnostics for artifact readers and validators.

    Every failure in the pinball / ELFie artifact pipeline is reported
    as a [t]: a machine-readable error code, the artifact it concerns
    (a file path, a pinball member name, or a logical artifact such as
    ["replay"]), an optional byte offset into the artifact and a human
    message. Readers expose both a [Result]-returning entry point and a
    raising one (raising {!Error}); validators return [t list].

    The code set is the shared contract of the pipeline — see
    "Validation rules & error codes" in [docs/PINBALL_FORMAT.md]. *)

type code =
  | Missing_file  (** a member file of a multi-file artifact is absent *)
  | Bad_magic  (** leading magic number does not match the format *)
  | Truncated  (** the artifact ends before a field it declares *)
  | Count_out_of_range
      (** a count field is negative or larger than the artifact could hold *)
  | Malformed  (** a field violates the format in some other way *)
  | Thread_mismatch
      (** per-thread structures disagree on the number of threads *)
  | Icount_mismatch
      (** recorded instruction counts disagree between members *)
  | Segment_overlap  (** two memory ranges overlap *)
  | Symbol_out_of_bounds  (** a symbol points outside the memory image *)
  | Entry_out_of_bounds  (** the entry point is not in executable memory *)
  | Stack_collision  (** the loader could not reserve a stack *)
  | Divergence  (** replay did not reproduce the recorded execution *)
  | Io_error  (** the underlying filesystem operation failed *)

type t = {
  code : code;
  artifact : string;  (** file path or logical artifact name *)
  offset : int option;  (** byte offset within the artifact, when known *)
  message : string;
}

exception Error of t

val v : ?offset:int -> artifact:string -> code -> string -> t

(** [f code fmt ...] builds a diagnostic with a formatted message. *)
val f : ?offset:int -> artifact:string -> code -> ('a, unit, string, t) format4 -> 'a

(** [fail code fmt ...] raises {!Error} with a formatted message. *)
val fail :
  ?offset:int -> artifact:string -> code -> ('a, unit, string, 'b) format4 -> 'a

(** [io_error ~artifact msg] is the {!Io_error} of a [Sys_error msg]
    raised on [artifact], without the leading ["artifact: "] that
    [msg] repeats. *)
val io_error : artifact:string -> string -> t

val to_string : t -> string
val pp : Format.formatter -> t -> unit

(** [protect fn] runs [fn ()], mapping a raised {!Error} to [Error]. *)
val protect : (unit -> 'a) -> ('a, t) result
