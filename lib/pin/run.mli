(** Assembling and running whole programs on the Vkernel machine.

    A {!spec} bundles everything that defines one execution: the ELF
    image, arguments, environment, input-file setup and the scheduler
    seed (the source of run-to-run variation for multi-threaded
    programs), and whether the run is native. Used by native runs
    ("real hardware" measurements), the PinPlay logger, the BBV profiler
    and the simulators. *)

type spec = {
  image : Elfie_elf.Image.t;
  argv : string list;
  env : string list;
  fs_init : Elfie_kernel.Fs.t -> unit;  (** populate input files *)
  cwd : string;  (** the process's initial working directory *)
  seed : int64;
  native : bool;
      (** [true] (the default): the machine stands in for the real CPU.
          It charges the {!Elfie_machine.Timing} model's cache and branch
          penalties, the kernel charges ring-0 work and timer interrupts
          fire. [false] for a simulator's front-end, which models its own
          timing: none of the three, and the machine builds no cache or
          predictor (see {!Elfie_machine.Machine.create}). *)
}

val spec :
  ?argv:string list ->
  ?env:string list ->
  ?fs_init:(Elfie_kernel.Fs.t -> unit) ->
  ?cwd:string ->
  ?seed:int64 ->
  ?native:bool ->
  Elfie_elf.Image.t ->
  spec

(** Instantiate machine + kernel + loaded process for a spec.
    @param scheduler defaults to a [Free] scheduler seeded from the spec. *)
val instantiate :
  ?scheduler:Elfie_machine.Machine.scheduler ->
  spec ->
  Elfie_machine.Machine.t * Elfie_kernel.Vkernel.t

type stats = {
  retired : int64;  (** user instructions, all threads *)
  cycles : int64;  (** wall-clock proxy *)
  cpi : float;
  stdout : string;
  clean : bool;  (** all threads exited with status 0 *)
  per_thread_retired : int64 array;
  ring0_retired : int64;
}

(** Run a spec natively to completion (or [max_ins]) and report. *)
val native : ?max_ins:int64 -> spec -> stats
