(** Assembling and running whole programs on the Vkernel machine.

    A {!spec} bundles everything that defines one execution: the ELF
    image, arguments, environment, input-file setup and the scheduler
    seed (the source of run-to-run variation for multi-threaded
    programs). Used by native runs ("real hardware" measurements), the
    PinPlay logger and the simulators. *)

type spec = {
  image : Elfie_elf.Image.t;
  argv : string list;
  env : string list;
  fs_init : Elfie_kernel.Fs.t -> unit;  (** populate input files *)
  cwd : string;  (** the process's initial working directory *)
  seed : int64;
  kernel_cost : bool;  (** charge ring-0 work to the timing model *)
}

val spec :
  ?argv:string list ->
  ?env:string list ->
  ?fs_init:(Elfie_kernel.Fs.t -> unit) ->
  ?cwd:string ->
  ?seed:int64 ->
  ?kernel_cost:bool ->
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

val stats_of_machine : Elfie_machine.Machine.t -> Elfie_kernel.Vkernel.t -> stats
