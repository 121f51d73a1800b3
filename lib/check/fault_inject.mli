(** Fault-injection harness for artifact robustness.

    Systematically corrupts serialized artifacts — bit flips,
    truncation, deleted member files, overwritten magics, oversized
    count fields, zero-fill, member swaps — then feeds them to the
    readers and validators. The invariant under test: {e every} fault
    either parses to a valid artifact (the corruption was benign, e.g.
    a flipped bit inside page data) or produces a structured
    {!Elfie_util.Diag.t}; no fault may escape as a raw exception, hang,
    or oversized allocation. *)

type fault =
  | Bit_flip  (** one random bit anywhere in one member *)
  | Truncate  (** member cut at a random byte *)
  | Delete_member  (** member file removed from the set *)
  | Corrupt_magic  (** member's magic overwritten *)
  | Oversized_count  (** a count field set far beyond the member size *)
  | Zero_member  (** member content zero-filled, size preserved *)
  | Swap_members  (** two members' contents exchanged *)

val all_faults : fault list
val fault_name : fault -> string

type outcome =
  | Accepted  (** parsed and passed validation: corruption was benign *)
  | Diagnosed of Elfie_util.Diag.t  (** rejected with a diagnostic *)
  | Crashed of string  (** any other exception escaped — a harness bug *)

type case = { fault : fault; detail : string; outcome : outcome }

type report = {
  total : int;
  accepted : int;
  diagnosed : int;
  cases : case list;
}

(** Cases whose outcome was [Crashed]; a robust pipeline yields []. *)
val crashes : report -> case list

(** Serialize [pb] with [Pinball.to_files], corrupt the file set
    [iterations] times per fault class, and classify each attempt via
    [Pinball.of_files_result] + {!Validate.pinball}. Deterministic for a
    given [seed]. *)
val run_pinball :
  ?iterations:int -> ?seed:int64 -> Elfie_pinball.Pinball.t -> report

(** Same sweep over a serialized ELF image, classified via
    [Image.read_result] + {!Validate.elf}. *)
val run_elf : ?iterations:int -> ?seed:int64 -> Elfie_elf.Image.t -> report

(** {1 Artifact-store faults}

    Corruption sweep over the farm's content-addressed {!Elfie_farm.Store}.
    The invariant under test is stronger than the reader sweeps above:
    {e every} store fault must degrade to a cache miss — the corrupt
    file quarantined (moved aside, never deleted, recorded as a
    degradation) and the artifact recomputed — and the value served must
    be bit-identical to a fresh computation. No fault may crash, hang,
    or be served as-is with corrupted payload. *)

type store_fault =
  | Torn_write  (** the committed file truncated at {e every} byte boundary *)
  | Header_bit_flip  (** one bit flipped inside the self-describing header *)
  | Payload_bit_flip  (** one bit flipped inside the payload *)
  | Stale_lock
      (** a per-key lock file left behind by a dead process (and a
          torn, contentless lock) *)
  | Version_skew
      (** store header version / payload format version rewritten *)

val all_store_faults : store_fault list
val store_fault_name : store_fault -> string

type store_outcome =
  | Store_recovered
      (** quarantined + recomputed; the served value matched *)
  | Store_benign
      (** the fault did not invalidate the artifact (e.g. a bit flip in
          free-form producer metadata); the cached payload was served
          intact *)
  | Store_served_corrupt of string
      (** the store returned a value different from a fresh computation
          — silent corruption, the one forbidden outcome *)
  | Store_crashed of string  (** an exception escaped the store *)

type store_case = {
  sfault : store_fault;
  sdetail : string;
  soutcome : store_outcome;
}

type store_report = {
  s_total : int;
  s_recovered : int;
  s_benign : int;
  s_cases : store_case list;
}

(** Cases that crashed or served corrupt data; a robust store yields []. *)
val store_failures : store_report -> store_case list

(** Run the sweep against a fresh store rooted at [root] (created if
    needed; the directory afterwards holds the quarantined corpses for
    inspection). Deterministic for a given [seed]. *)
val run_store :
  ?iterations:int -> ?seed:int64 -> root:string -> unit -> store_report

val pp_store_report : Format.formatter -> store_report -> unit

(** Convert [pb] into an ELFie whose exit path spins forever: the region
    counters fire as usual, but the process loops past them and never
    exits — the hang failure class. Such a run is {e not} graceful; only
    the instruction budget (the runner's [max_ins] cap) can stop it,
    after which it classifies as a runaway. Extra
    conversion [options] are honoured; the injected exit-path spin
    overrides [extra_on_exit]. *)
val hang_elfie :
  ?options:Elfie_core.Pinball2elf.options ->
  Elfie_pinball.Pinball.t ->
  Elfie_elf.Image.t

val pp_report : Format.formatter -> report -> unit
