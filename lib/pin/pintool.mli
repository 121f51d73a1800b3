(** Vpin: the dynamic-instrumentation facade.

    Plays the role Pin plays in the paper: analysis tools declare
    callbacks (instruction, memory, branch, syscall-marker, thread
    events) and [attach] multiplexes any number of tools onto one
    machine's single hook slots. The logger, the BBV profiler and
    user-written analysis tools are all Vpin tools and can run
    simultaneously, like Pintools sharing one Pin process. As in Pin,
    the calls are built into the translated code: a tool with an
    instruction, memory or branch callback runs on instrumented
    translations that chain like uninstrumented ones (see
    {!Elfie_machine.Machine.hooks} for what a callback observes). *)

type t = {
  name : string;
  on_ins : (int -> int64 -> Elfie_isa.Insn.t -> unit) option;
  on_mem_read : (int -> int64 -> int -> unit) option;
  on_mem_write : (int -> int64 -> int -> unit) option;
  on_branch : (int -> int64 -> int64 -> bool -> unit) option;
  on_marker : (int -> Elfie_isa.Insn.t -> unit) option;
  on_thread_start : (int -> unit) option;
  on_thread_exit : (int -> int -> unit) option;
}

(** A tool with no callbacks; override the fields you need. *)
val empty : name:string -> t

(** Attach tools to a machine, chaining with any hooks already
    installed: per hook, the callbacks already installed fire first,
    then the tools' in list order. A hook that ends up with a single
    callback gets that callback as it is, and several are composed once
    at attach time, so firing a hook allocates nothing. Hook-set
    changes apply at the machine's next block fetch. Returns a detach
    function restoring the previous hooks. *)
val attach : Elfie_machine.Machine.t -> t list -> unit -> unit

(** [attach_from_marker machine tools] attaches [tools] at the first
    marker ([Ssc_marker], [Magic] or [Cpuid]) that any thread executes,
    right after it: the marker itself is not observed. Until then only
    an [on_marker] call-out is installed, so the code before the region
    of interest runs on plain translations. Returns a detach function
    for both. *)
val attach_from_marker : Elfie_machine.Machine.t -> t list -> unit -> unit

(** Count of instrumented instructions seen by an [on_ins]-only probe —
    convenience for overhead experiments. *)
val instruction_counter : unit -> t * (unit -> int64)
