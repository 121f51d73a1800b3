(** Vsniper: an execution-driven multicore timing simulator.

    Stands in for the Sniper simulator of the paper's case studies: a
    mechanistic core model (dispatch width, branch-mispredict and memory
    penalties) with per-core private L1/L2 caches and a shared LLC.

    Two front-ends, as in Section IV-B:

    - {!simulate_elfie} runs an ELF binary unmodified (the point of
      ELFies): simulation is {e unconstrained}, threads schedule freely,
      spin loops really spin, and the model starts at the ROI marker so
      ELFie startup code is excluded;
    - {!simulate_pinball} drives the model from constrained replay,
      where the recorded schedule can introduce artificial stalls and
      instruction counts reproduce the log exactly.

    Simulation ends at a [(PC, global execution count)] pair, the
    region-end criterion the paper uses for multi-threaded regions. *)

type config = {
  cores : int;
  dispatch_width : int;
  l1 : Elfie_machine.Cache.config;
  l2 : Elfie_machine.Cache.config;
  llc : Elfie_machine.Cache.config;
  l1_miss_cycles : int;
  l2_miss_cycles : int;
  llc_miss_cycles : int;
  mispredict_cycles : int;
  syscall_cycles : int;
  stall_interval_ins : int;
      (** model asynchronous platform interference (interrupts, DRAM
          refresh, SMM): roughly one random stall per this many
          instructions per core. This is what de-synchronises otherwise
          identical worker threads, so unconstrained (ELFie) simulations
          accumulate realistic spin-wait instructions at barriers. *)
  stall_cycles : int;
}

(** The paper's reference machine: an Intel Gainestown-like out-of-order
    8-core part. *)
val gainestown : cores:int -> config

type result = {
  instructions : int64;  (** simulated instructions, all cores *)
  per_thread_instructions : int64 array;
  runtime_cycles : int64;  (** max core cycle count *)
  ipc : float;  (** aggregate instructions / runtime *)
  per_core_cycles : int64 array;
  end_condition_met : bool;
  completed : bool;
      (** the end condition fired or every thread exited; [false] means
          the [max_ins] cap stopped a run that was still executing *)
}

(** End-of-simulation criterion: stop once the instruction at [pc] has
    executed [count] times globally across all threads. *)
type end_condition = { pc : int64; count : int }

(** Determine a region-end criterion with a separate profiling run of
    the pinball (the paper's methodology): the last instruction executed
    in constrained replay outside the [exclude] address range (pass the
    spin-barrier code range), with its global in-region execution
    count. *)
val profile_end_condition :
  ?exclude:int64 * int64 -> Elfie_pinball.Pinball.t -> end_condition

(** Simulate an ELFie (or any VX86 ELF executable) natively. The timing
    model arms when the first ROI marker retires. *)
val simulate_elfie :
  ?end_condition:end_condition ->
  ?fs_init:(Elfie_kernel.Fs.t -> unit) ->
  ?cwd:string ->
  ?max_ins:int64 ->
  config ->
  Elfie_elf.Image.t ->
  result

(** Simulate a pinball under constrained replay (the PinPlay-enabled
    Sniper of the paper). *)
val simulate_pinball :
  ?end_condition:end_condition ->
  config ->
  Elfie_pinball.Pinball.t ->
  result
