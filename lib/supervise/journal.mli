(** Resumable experiment journal.

    An append-only, line-oriented ledger of supervised jobs. Each record
    carries the job name, a hash of the job's inputs, the number of
    attempts the supervisor made, the final {!Classify.t}, whether the
    job was quarantined and the wall time spent. Batch drivers
    ([bin/experiments], [bin/elfie_run], [bin/elfied]) write one record
    per finished job; on [--resume] the journal is read back and jobs whose
    latest record is graceful — with an unchanged inputs hash — are
    skipped, so a killed batch picks up where it left off.

    The on-disk format is one record per line:

    {v J1 <TAB> job <TAB> inputs_hash <TAB> attempts <TAB> classification <TAB> quarantined <TAB> wall_ms [<TAB> attrs] v}

    The trailing attrs field is optional (records written before it
    existed parse fine without it) and carries percent-escaped [k=v]
    pairs joined by commas — e.g. per-attempt class/duration breakdowns
    sourced from the supervisor's trace spans.

    Loading is tolerant: a truncated or corrupt line anywhere in the
    file (the process died mid-write, or the file was appended to
    concurrently) is ignored rather than failing the resume. When a job
    appears more than once, the latest record wins. *)

type record = {
  job : string;  (** unique job name within the batch *)
  inputs_hash : string;  (** {!hash} of the job's inputs *)
  attempts : int;  (** supervisor attempts, including the final one *)
  classification : Classify.t;
  quarantined : bool;
  wall_ms : float;  (** wall time across all attempts *)
  attrs : (string * string) list;
      (** optional free-form annotations ([[]] when absent) *)
}

type t

(** Open (creating if needed) a journal file. Existing records are
    loaded; subsequent {!record} calls append to the file. *)
val open_file : string -> t

val close : t -> unit

(** Append a record. The line is flushed and the file [fsync]ed before
    [record] returns, so a killed process (or a power loss) loses at
    most the record being written. Safe to call from pool domains. *)
val record : t -> record -> unit

(** All records, oldest first (duplicates included). *)
val records : t -> record list

(** Latest record for [job], if any. *)
val find : t -> job:string -> record option

(** A resumed batch skips [job] iff its latest record is graceful, not
    quarantined, and was produced from the same inputs hash. *)
val should_skip : t -> job:string -> inputs_hash:string -> bool

(** Hash a job's input strings into a stable hex digest. *)
val hash : string list -> string

(** Render one record as its journal line (without the newline). *)
val line_of_record : record -> string

(** Parse a journal line; [None] for malformed/truncated lines. *)
val record_of_line : string -> record option
