(** Pinballs: user-level region checkpoints, the PinPlay container.

    A pinball captures everything needed to replay a region of one
    process's execution: the initial memory image (the [.text] file,
    shared by all threads), per-thread architectural registers at region
    start (the [.reg] files), the system-call side-effect log used for
    injection during replay (the [.inj] file), the recorded thread
    schedule (the [.order] file) and region metadata (the [.global.log]
    file).

    [fat] pinballs additionally carry {e every} page mapped at region
    start, not only the pages the region touches — the
    [-log:whole_image -log:pages_early] combination the paper added to
    PinPlay so that pinball2elf has a complete image to convert. *)

(** One logged system call, in per-thread program order. *)
type syscall_entry = {
  sys_nr : int;
  sys_args : int64 array;  (** the six argument registers *)
  sys_path : string option;  (** decoded path for open(2), used by sysstate *)
  sys_ret : int64;
  sys_writes : (int64 * string) list;
      (** memory the kernel wrote, to re-inject at replay *)
  sys_reexec : bool;
      (** structural call (mmap/brk/clone/...): re-executed, not injected *)
}

type t = {
  name : string;
  fat : bool;
  contexts : Elfie_machine.Context.t array;  (** per thread, at region start *)
  pages : (int64 * bytes) list;
      (** initial memory image, sorted; the bytes may be shared with
          the other pinballs of one capture, so they are read-only *)
  icounts : int64 array;  (** per-thread instructions inside the region *)
  schedule : (int * int) list;  (** recorded (tid, instruction-count) slices *)
  injections : syscall_entry list array;  (** per-thread syscall logs *)
  brk : int64;  (** program break at region start *)
  symbols : (string * int64) list;
      (** application symbols carried over from the original binary, so
          generated ELFies support symbolic debugging (the paper's
          proposed extension) *)
}

val num_threads : t -> int

(** Aggregate region length over all threads. *)
val total_icount : t -> int64

(** Total bytes of memory image. *)
val image_bytes : t -> int

(** Serialize to the pinball file set: [(file-suffix, contents)] pairs,
    e.g. [("text", ...); ("0.reg", ...); ...]. The suffixes follow
    PinPlay naming. *)
val to_files : t -> (string * string) list

(** Rebuild from the file set. Malformed or missing members raise
    [Elfie_util.Diag.Error] carrying the member name, the error code and
    the byte offset of the offending field. *)
val of_files : name:string -> (string * string) list -> t

(** Non-raising variant of {!of_files}. [dir], when given, is only used
    to report full artifact paths in diagnostics. *)
val of_files_result :
  ?dir:string ->
  name:string ->
  (string * string) list ->
  (t, Elfie_util.Diag.t) result

(** Write/read a pinball as [dir/name.<suffix>] files on the real
    filesystem. [load] raises [Elfie_util.Diag.Error] on missing or
    malformed members; diagnostics name the full on-disk path. *)
val save : t -> dir:string -> unit

val load : dir:string -> name:string -> t

(** Non-raising variant of {!load}. *)
val load_result : dir:string -> name:string -> (t, Elfie_util.Diag.t) result

(** Structural equality (for round-trip tests). *)
val equal : t -> t -> bool

val pp_summary : Format.formatter -> t -> unit
