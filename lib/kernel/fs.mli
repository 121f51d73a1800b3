(** In-memory filesystem for the Vkernel.

    Flat namespace of absolute paths. This is the OS resource a pinball
    region depends on (open file descriptors, file contents) and that
    the SYSSTATE technique reconstructs for ELFie re-execution: proxy
    files created by [pinball_sysstate] are installed here before an
    ELFie runs. *)

type t

val create : unit -> t

(** Normalize: collapse duplicate slashes, resolve ["."] segments,
    prefix relative paths with [cwd]. *)
val normalize : cwd:string -> string -> string

val add_file : t -> path:string -> string -> unit
val exists : t -> string -> bool
val file_size : t -> string -> int option
val read_file : t -> string -> string option
val remove : t -> string -> unit

val copy : t -> t

(** Byte-level access used by the read/write/lseek syscalls. *)
val read_at : t -> string -> pos:int -> len:int -> string option

(** Extends the file if writing past its end. Creates nothing: the file
    must exist. Returns bytes written, or [None] if absent. *)
val write_at : t -> string -> pos:int -> string -> int option
