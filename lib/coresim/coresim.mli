(** Vcoresim: a detailed single-socket simulator with user-level and
    full-system front-ends.

    Stands in for CoreSim, the Intel-internal cycle-accurate simulator
    of Section IV-C, which runs either with SDE (user-space instructions
    only) or with Simics (full system). Because ELFies are ordinary
    executables, the same image runs on both front-ends and the OS
    interference question of Table IV becomes directly measurable:

    - [User_level] simulates application instructions only; system
      calls complete instantly and leave no microarchitectural trace;
    - [Full_system] charges the synthetic ring-0 instruction cost of
      each system call, walks kernel data through the cache hierarchy
      (evicting user lines and growing the measured footprint) and
      flushes the TLB on kernel entry.

    The model arms at the first ROI marker (Simics "magic instruction"),
    skipping ELFie startup code. *)

type mode = User_level | Full_system

type config = {
  dispatch_width : int;
  l1 : Elfie_machine.Cache.config;
  l2 : Elfie_machine.Cache.config;
  llc : Elfie_machine.Cache.config;
  dtlb_entries : int;
  l1_miss_cycles : int;
  l2_miss_cycles : int;
  llc_miss_cycles : int;
  tlb_miss_cycles : int;
  mispredict_cycles : int;
  kernel_cpi : float;  (** cycles per simulated ring-0 instruction *)
  kernel_lines_per_syscall : int;
      (** distinct kernel cache lines touched per system call *)
  timer_interval_ins : int;
      (** full-system only: a timer interrupt fires every N user
          instructions (OS noise even in syscall-free regions) *)
  timer_kernel_ins : int;  (** ring-0 instructions per timer interrupt *)
}

(** Detailed Intel Skylake-like model (the paper's Table IV machine). *)
val skylake : config

type result = {
  user_instructions : int64;
  kernel_instructions : int64;  (** ring-0; zero in user-level mode *)
  runtime_cycles : int64;
  cpi : float;  (** cycles per user instruction *)
  data_footprint_bytes : int64;  (** distinct cache lines touched x 64 *)
  dtlb_misses : int64;
  llc_misses : int64;
  syscalls : int64;
  completed : bool;
      (** every thread exited; [false] means the [max_ins] cap stopped a
          run that was still executing (a runaway ELFie) *)
}

(** Simulate an ELF image. [measure_after] excludes the first N
    simulated instructions (a warmup prefix) from the reported CPI,
    while still warming the model. *)
val simulate :
  ?mode:mode ->
  ?from_marker:bool ->
  ?measure_after:int64 ->
  ?fs_init:(Elfie_kernel.Fs.t -> unit) ->
  ?cwd:string ->
  ?max_ins:int64 ->
  config ->
  Elfie_elf.Image.t ->
  result
