(** The PinPlay replayer.

    [Constrained] mode is faithful pinball replay: the recorded thread
    schedule is enforced and data system calls are skipped, with results
    and kernel memory side effects injected from the log — so replay
    reproduces the captured region exactly (shared-memory access order
    is repeated, per the paper's "constrained replay" guarantee).

    [Injectionless] mode is the paper's [-replay:injection 0] switch: the
    same initial state, but system calls re-execute natively and threads
    are scheduled freely. It mimics ELFie execution while still under
    Pin, and exists for debugging ELFie failures. *)

type mode =
  | Constrained
  | Injectionless of { seed : int64; fs_init : Elfie_kernel.Fs.t -> unit }

(** Where replay first left the recorded execution: the thread, its
    program counter and retired instruction count at that point, and a
    description of what disagreed. *)
type divergence = {
  div_tid : int;
  div_pc : int64;
  div_icount : int64;
  div_what : string;
}

type result = {
  per_thread_retired : int64 array;
  matched_icounts : bool;
      (** every region-start thread retired exactly its recorded count *)
  divergences : int;  (** syscalls that did not line up with the log *)
  first_divergence : divergence option;
      (** the first syscall-level divergence, or (when syscalls lined up
          but counts did not) the first thread whose retired count
          disagrees with the recording *)
  capped : bool;
      (** the instruction cap stopped the replay — a wedged or runaway
          execution, not a finished one *)
  retired : int64;
  cycles : int64;
  stdout : string;
}

(** Materialise the pinball into a fresh machine and run the region.
    Injection-less replay stops machine-wide at 3x the recorded region
    icount (free scheduling can spin forever past a divergence);
    constrained replay is unbounded. *)
val replay : ?mode:mode -> Elfie_pinball.Pinball.t -> result

(** Build the machine/kernel pair positioned at region start without
    running it — used by simulators that drive execution themselves.
    Returns the per-tid injection queues already wired when
    [constrained] is true; the closure reports the divergence count and
    the first divergence seen so far. [native] (default [true]) is
    {!Elfie_machine.Machine.create}'s: a simulator passes [false], so
    its machine charges no cache or branch penalties. {!replay} keeps
    the native model, whose cycles its result reports. *)
val materialize :
  ?constrained:bool ->
  ?native:bool ->
  ?seed:int64 ->
  ?fs_init:(Elfie_kernel.Fs.t -> unit) ->
  Elfie_pinball.Pinball.t ->
  Elfie_machine.Machine.t
  * Elfie_kernel.Vkernel.t
  * (unit -> int * divergence option)
