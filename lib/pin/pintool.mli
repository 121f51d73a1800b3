(** Vpin: the dynamic-instrumentation facade.

    Plays the role Pin plays in the paper: an analysis tool declares an
    instrumentation routine, called once per instruction when its block
    is translated, which returns only the analysis calls that
    instruction needs (a before-call, memory call-outs, a branch
    call-out: {!Elfie_machine.Machine.callouts}), plus rare-event
    callbacks (markers, thread start and exit). [attach] multiplexes any
    number of tools onto one machine's hooks: the logger, the BBV
    profiler, the simulators and user-written analysis tools can run
    simultaneously, like Pintools sharing one Pin process. The calls are
    built into the translated code, which chains like uninstrumented
    code (see {!Elfie_machine.Machine.callouts} for what a call-out
    observes). *)

type t = {
  name : string;
  instrument : (int64 -> Elfie_isa.Insn.t -> Elfie_machine.Machine.callouts) option;
      (** pc, instruction — at translation *)
  on_marker : (int -> Elfie_isa.Insn.t -> unit) option;
  on_thread_start : (int -> unit) option;
  on_thread_exit : (int -> int -> unit) option;
}

(** A tool with no callbacks; override the fields you need. *)
val empty : name:string -> t

(** Attach tools to a machine, chaining with any hooks already
    installed: the routines and callbacks already installed come first,
    then the tools' in list order. Per instruction, the call-outs of
    several tools are merged once, at translation, so that each runs
    the first tool's call-out, then the next; a lone instrumentation
    routine or callback is installed as it is. Instrumentation changes
    apply at the machine's next block fetch. Returns a detach function
    restoring the previous hooks. *)
val attach : Elfie_machine.Machine.t -> t list -> unit -> unit

(** [attach_from_marker ~at_start machine tools] attaches [tools] at the first
    marker ([Ssc_marker], [Magic] or [Cpuid]) that any thread executes,
    right after it: the marker itself is not observed. Until then only
    an [on_marker] call-out is installed, so the code before the region
    of interest runs on plain translations. [at_start tid] runs right
    after the tools are attached, in that marker's [on_marker] call
    (the marker retires next). Returns a detach function for both. *)
val attach_from_marker :
  at_start:(int -> unit) -> Elfie_machine.Machine.t -> t list -> unit -> unit

(** [start_roi ~from_marker ~max_ins machine tools] starts the region of
    interest, the one way a simulator or an analysis run begins. With
    [from_marker], it runs [machine] until the first marker retires
    (or until [max_ins] instructions have retired machine-wide), with
    [tools] attached right after the marker ({!attach_from_marker});
    without it, it attaches [tools] at once. It returns the {!executed}
    count at which the region starts (its first instruction is the next
    one the machine executes), or [None] if no marker was reached. The
    tools stay attached; the caller runs the region with
    {!Elfie_machine.Machine.run}, which resumes right after the marker. *)
val start_roi :
  from_marker:bool -> max_ins:int64 -> Elfie_machine.Machine.t -> t list -> int option

(** Instructions a thread has executed: those retired, plus the one it
    faulted on (a fetch fault runs none). This is what a before-call on
    every instruction would have counted, so a timing model can count
    its instructions without one. *)
val thread_executed : Elfie_machine.Machine.thread -> int

(** {!thread_executed}, summed over the machine's threads. *)
val executed : Elfie_machine.Machine.t -> int
