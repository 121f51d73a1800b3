(** Vgem5: a binary-driven out-of-order timing model in syscall-emulation
    (SE) mode.

    Stands in for the gem5 runs of Section IV-D: an ELFie is executed as
    an ordinary binary, system services come straight from the
    (simulated) host kernel, and the timing model is an interval-style
    out-of-order core parameterised by the resources Table V varies —
    reorder-buffer size, issue width, load/store queue depth and
    physical register file. A larger back-end hides more memory latency
    (the ROB/LSQ overlap window), so memory-bound applications gain the
    most from the Haswell-like configuration, as in the paper.

    Like real gem5 (SSE2-era ISA support), vector instructions execute
    at reduced throughput in this model. *)

type cpu_config = {
  name : string;
  rob_entries : int;
  issue_width : int;
  lsq_entries : int;
  int_regs : int;
  l1 : Elfie_machine.Cache.config;
  l2 : Elfie_machine.Cache.config;
  l1_miss_cycles : int;
  l2_miss_cycles : int;
  mispredict_cycles : int;
}

(** Intel Nehalem-like configuration. *)
val nehalem : cpu_config

(** Intel Haswell-like configuration (larger ROB/LSQ/regfile/caches). *)
val haswell : cpu_config

type result = {
  instructions : int64;
  cycles : int64;
  ipc : float;
  l2_misses : int64;
  completed : bool;
      (** every thread exited; [false] means the [max_ins] cap stopped a
          run that was still executing (a runaway ELFie) *)
}

(** Simulate an ELF binary in SE mode. Timing starts at the first ROI
    marker unless [from_marker] is false. *)
val simulate_se :
  ?from_marker:bool ->
  ?fs_init:(Elfie_kernel.Fs.t -> unit) ->
  ?cwd:string ->
  ?max_ins:int64 ->
  cpu_config ->
  Elfie_elf.Image.t ->
  result
