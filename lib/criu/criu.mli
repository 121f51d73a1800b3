(** Vcriu: CRIU-style whole-process checkpoint/restore — the baseline
    the paper contrasts ELFies with (Sections I and V).

    A checkpoint captures the complete process state at one instant:
    every mapped page, every live thread's registers, the descriptor
    table (paths and file offsets), the program break and working
    directory. Restoring it materialises the process on a fresh machine
    "on the same or a similar machine", against a filesystem the caller
    supplies, as CRIU relies on the host filesystem being present; the
    pipeline never restores one (ablation E only measures its size), so
    that restore lives in the tests, which use it to check that a
    checkpoint is complete.

    The contrasts with ELFies that the paper draws are all observable
    here:

    - a checkpoint is {e not} an executable: it needs restore
      machinery (the analogue of CRIU needing a matching kernel), while
      an ELFie runs under any ELF-consuming tool;
    - it is a point-in-time snapshot with {e no specified end}, whereas
      an ELFie represents a bounded region with a graceful exit;
    - it restores kernel state (open descriptors) exactly, where ELFies
      rely on the SYSSTATE approximation. *)

type t = {
  pages : (int64 * bytes) list;
  contexts : Elfie_machine.Context.t array;  (** live threads, dense *)
  fds : (int * Elfie_kernel.Vkernel.fd_state) list;
  brk : int64;
  cwd : string;
}

(** Snapshot a live process. Memory is captured copy-on-write: the
    checkpoint aliases the machine's page bytes (zero copies at capture
    time) and the machine's pages are frozen shared, so writes the
    process performs after the checkpoint copy their page first and the
    checkpoint is never perturbed. Raises [Failure] if a thread has
    exited (leaving a tid gap), which this simplified process model
    cannot restore. *)
val checkpoint : Elfie_machine.Machine.t -> Elfie_kernel.Vkernel.t -> t

(** Serialized image size in bytes (for size comparisons with pinballs
    and ELFies). *)
val image_bytes : t -> int

(** The serialized checkpoint: one ["image"] member. *)
val to_files : t -> (string * string) list
