(** ELF64 images: a typed view, a byte-exact writer and a validating
    reader.

    ELFies are genuine ELF files produced by this module. The design
    point that matters for the paper is faithful loader semantics:
    only sections carrying [SHF_ALLOC] get a [PT_LOAD] program header,
    so marking the pinball's stack pages non-allocatable really does
    keep the loader from mapping them (Section II-B3, stack collision).

    [write] followed by [read] round-trips the typed view
    (property-tested). *)

type section_kind = Progbits | Nobits | Note

type section = {
  name : string;
  kind : section_kind;
  alloc : bool;
  writable : bool;
  executable : bool;
  addr : int64;  (** virtual address when allocatable *)
  data : bytes;  (** empty for [Nobits] *)
  align : int;
}

val section :
  ?alloc:bool ->
  ?writable:bool ->
  ?executable:bool ->
  ?kind:section_kind ->
  ?align:int ->
  name:string ->
  addr:int64 ->
  bytes ->
  section

type symbol = { sym_name : string; value : int64; func : bool }

type t = {
  exec : bool;  (** [ET_EXEC] vs [ET_REL] *)
  entry : int64;
  sections : section list;
  symbols : symbol list;
}

(** Serialize to ELF64 little-endian bytes. Emits one [PT_LOAD] program
    header per allocatable section, a [.symtab]/[.strtab] pair when
    there are symbols, and [.shstrtab]. *)
val write : t -> bytes

(** Parse and validate an ELF64 image; raises [Elfie_util.Diag.Error]
    on anything malformed (bad magic, wrong class/endianness/machine,
    out-of-bounds headers, truncated section data), with the error
    code, the byte offset of the offending field when known and a
    message. [artifact] names the image in diagnostics (e.g. its file
    path). *)
val read : ?artifact:string -> bytes -> t

(** Non-raising variant of {!read}. *)
val read_result : ?artifact:string -> bytes -> (t, Elfie_util.Diag.t) result

(** Segments the system loader would map: [(vaddr, data, flags)] for
    each allocatable section, where flags are [(r, w, x)]. *)
val loadable : t -> (int64 * bytes * (bool * bool * bool)) list

val find_section : t -> string -> section option
val find_symbol : t -> string -> int64 option

(** Human-readable [readelf]-style summary. *)
val pp : Format.formatter -> t -> unit
