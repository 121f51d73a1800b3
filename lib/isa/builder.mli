(** Program builder: an assembler eDSL with labels.

    Workload programs, ELFie startup code and callback stubs are all
    emitted through this module. Instructions are appended sequentially;
    forward references go through {!type:label}s that a two-pass
    assembly resolves to concrete displacements and absolute addresses.

    Instruction encodings have form-determined lengths, so one sizing
    pass suffices before emission. *)

type label
type t

val create : unit -> t

(** Fresh, unbound label. [name]d labels become symbols of the
    assembled program. *)
val new_label : ?name:string -> t -> label

(** Bind [label] to the current position. Binding twice is an error. *)
val bind : t -> label -> unit

(** Convenience: fresh label bound at the current position. *)
val here : ?name:string -> t -> label

(** Append a concrete instruction (its branch displacements, if any, are
    taken as already computed). *)
val ins : t -> Insn.t -> unit

val jmp : t -> label -> unit
val jcc : t -> Insn.cond -> label -> unit
val call : t -> label -> unit

(** [jmp_mem b l] emits an indirect jump through the 64-bit slot at
    label [l] (used for absolute control transfers out of startup code). *)
val jmp_mem : t -> label -> unit

(** [mov_label b r l] loads the absolute address of [l] into [r]. *)
val mov_label : t -> Reg.gpr -> label -> unit

(** Emit the absolute address of a label as a data quad. *)
val quad_label : t -> label -> unit

val byte : t -> int -> unit
val quad : t -> int64 -> unit
val raw : t -> bytes -> unit
val zeros : t -> int -> unit

(** Pad with zero bytes to the next multiple of [n] (a power of two). *)
val align : t -> int -> unit

(** Result of assembling a builder at a base address. *)
type program = {
  base : int64;
  code : bytes;
  symbols : (string * int64) list;  (** named labels, in definition order *)
}

(** [assemble b ~base] lays the program out at virtual address [base].
    Raises [Failure] if any referenced label is unbound. *)
val assemble : t -> base:int64 -> program

(** Address of a label within an assembled program. The builder must be
    the one that produced the program. *)
val resolve : t -> program -> label -> int64
