(** The Vkernel: per-process OS state and the system-call handler.

    One [Vkernel.t] backs one process (one {!Elfie_machine.Machine.t}).
    It owns the file-descriptor table, program break, virtual clock and
    standard-output capture, and installs itself as the machine's
    syscall handler.

    Two features exist specifically for the paper's pipeline:

    - a {e syscall recorder} lets the PinPlay-style logger capture each
      call's result and kernel-performed memory writes, which is what
      the replayer later injects;
    - per-syscall {e ring-0 cost accounting} (configurable) models the
      kernel instructions that full-system simulation sees and
      user-level simulation does not (Table IV). *)

type config = {
  stack_randomization : bool;
      (** randomize the initial stack base like Linux; the source of the
          stack-collision hazard of Section II-B3 *)
  kernel_cost : bool;  (** charge ring-0 instructions/cycles per syscall *)
  seed : int64;
  initial_cwd : string;
}

val default_config : config

type t

val create : ?config:config -> Fs.t -> t
val config : t -> config
val fs : t -> Fs.t

(** Install this kernel as the machine's syscall handler. *)
val install : t -> Elfie_machine.Machine.t -> unit

(** Independent clone for {!Elfie_machine.Machine.fork}ed machines:
    filesystem, FD table (including file positions), output buffer,
    heap/mmap cursors, syscall RNG stream position and tallies are all
    duplicated; the stack-randomization offset is preserved, not
    re-drawn. The clone has no recorder and is not installed anywhere —
    call {!install} with the forked machine. *)
val fork : t -> t

val cwd : t -> string

(** Everything the process wrote to stdout/stderr. *)
val stdout_contents : t -> string

(** Current program break. *)
val brk : t -> int64

(** Force the break (used when materialising a checkpointed process). *)
val force_brk : t -> int64 -> unit

(** Descriptor-table introspection and reconstruction, used by
    whole-process checkpointing (the CRIU-style baseline). *)
type fd_state = Fd_console | Fd_file of { path : string; pos : int }

val fd_table : t -> (int * fd_state) list
val set_fd : t -> int -> fd_state -> unit

val syscall_count : t -> int

type syscall_record = {
  rec_tid : int;
  rec_nr : int;
  rec_args : int64 array;  (** the six argument registers *)
  rec_path : string option;  (** decoded path argument, for open(2) *)
  rec_ret : int64;
  rec_writes : (int64 * string) list;
      (** memory the kernel wrote (address, bytes), e.g. read(2) data *)
  rec_reexec : bool;  (** structural call: re-execute on replay *)
}

(** Install a recorder invoked after every handled syscall. *)
val set_recorder : t -> (syscall_record -> unit) option -> unit

(** The stack-randomization draw the loader uses; exposed so tests can
    pin it. *)
val stack_random_offset : t -> int64
