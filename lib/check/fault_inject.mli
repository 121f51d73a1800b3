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
    [Pinball.of_files_result] + {!Validate.pinball}. Deterministic: the
    corruptions come from one fixed seed. *)
val run_pinball : ?iterations:int -> Elfie_pinball.Pinball.t -> report

(** Same sweep over a serialized ELF image, classified via
    [Image.read_result] + {!Validate.elf}. *)
val run_elf : ?iterations:int -> Elfie_elf.Image.t -> report

val pp_report : Format.formatter -> report -> unit
