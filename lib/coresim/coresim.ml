open Elfie_isa
open Elfie_machine
open Elfie_kernel

module Trace = Elfie_obs.Trace
module Metrics = Elfie_obs.Metrics

(* Shared across the simulator backends: each registers the same family
   (the metrics registry is get-or-create by name) and labels its own
   series with backend=<name>. *)
let m_sim_instructions =
  Metrics.counter "elfie_sim_instructions_total"
    ~help:"User instructions simulated, by backend"

let m_cache_miss_ratio =
  Metrics.gauge "elfie_sim_cache_miss_ratio"
    ~help:"Last-level cache misses per simulated user instruction of \
           the most recent run, by backend"

type mode = User_level | Full_system

type config = {
  dispatch_width : int;
  l1 : Cache.config;
  l2 : Cache.config;
  llc : Cache.config;
  dtlb_entries : int;
  l1_miss_cycles : int;
  l2_miss_cycles : int;
  llc_miss_cycles : int;
  tlb_miss_cycles : int;
  mispredict_cycles : int;
  kernel_cpi : float;
  kernel_lines_per_syscall : int;
  timer_interval_ins : int;
  timer_kernel_ins : int;
}

let skylake =
  {
    dispatch_width = 4;
    l1 = Cache.config ~size_bytes:32_768 ~ways:8 ~line_bytes:64;
    l2 = Cache.config ~size_bytes:1_048_576 ~ways:16 ~line_bytes:64;
    llc = Cache.config ~size_bytes:11_534_336 ~ways:11 ~line_bytes:64;
    dtlb_entries = 64;
    l1_miss_cycles = 10;
    l2_miss_cycles = 35;
    llc_miss_cycles = 170;
    tlb_miss_cycles = 30;
    mispredict_cycles = 16;
    kernel_cpi = 9.0;
    kernel_lines_per_syscall = 360;
    timer_interval_ins = 25_000;
    timer_kernel_ins = 400;
  }

type result = {
  user_instructions : int64;
  kernel_instructions : int64;
  runtime_cycles : int64;
  cpi : float;
  data_footprint_bytes : int64;
  dtlb_misses : int64;
  llc_misses : int64;
  syscalls : int64;
  completed : bool;
}

(* LLC line numbers, hashed without the generic [caml_hash] or
   polymorphic compare: the multiply spreads low bits up, the fold brings
   high bits down, so strided line numbers still fill every bucket. *)
module Line_set = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash x =
    let h = x * 0x9E3779B1 in
    (h lxor (h lsr 32)) land max_int
end)

(* The model's cycle counts live in an all-float record, so the per-event
   additions store unboxed. [cycles] holds every penalty; the
   [1/dispatch_width] per instruction is added from the instruction
   count when read (see [simulate]). *)
type clock = { mutable cycles : float; mutable window_start_cycles : float }

type model = {
  cfg : config;
  mode : mode;
  l1 : Cache.t;
  l2 : Cache.t;
  llc : Cache.t;
  dtlb : Cache.t;
  llc_lines : unit Line_set.t;
      (* distinct lines looked up in the LLC: the data footprint *)
  llc_key_shift : int;  (* key lsr llc_key_shift = the LLC line number *)
  predictor : Timing.Predictor.t;
  rng : Elfie_util.Rng.t;
  clock : clock;
  mutable kernel_ins : int64;
  mutable syscalls : int64;
  mutable window_start_ins : int;
}

let fresh_model cfg mode =
  {
    cfg;
    mode;
    l1 = Cache.create cfg.l1;
    l2 = Cache.create cfg.l2;
    llc = Cache.create cfg.llc;
    (* The DTLB is a fully-associative page-granular cache. *)
    dtlb =
      Cache.create
        (Cache.config
           ~size_bytes:(cfg.dtlb_entries * Addr_space.page_size)
           ~ways:cfg.dtlb_entries ~line_bytes:Addr_space.page_size);
    llc_lines = Line_set.create 1024;
    llc_key_shift =
      (let rec log2 n = if n = 1 then 0 else 1 + log2 (n lsr 1) in
       log2 cfg.llc.line_bytes - 1);
    predictor = Timing.Predictor.create ();
    rng = Elfie_util.Rng.create 0x5ca1ab1eL;
    clock = { cycles = 0.0; window_start_cycles = 0.0 };
    kernel_ins = 0L;
    syscalls = 0L;
    window_start_ins = 0;
  }

(* [key] is the access's {!Cache.key}: the address shifted right by one. *)
let cache_walk model key =
  if Cache.access model.l1 key then 0
  else if Cache.access model.l2 key then model.cfg.l1_miss_cycles
  else if Cache.access model.llc key then model.cfg.l2_miss_cycles
  else begin
    (* Lines enter the LLC only through a miss, so a line's first LLC
       lookup always misses: the lines that missed are exactly the lines
       looked up, and recording misses alone gives the same footprint. *)
    Line_set.replace model.llc_lines (key lsr model.llc_key_shift) ();
    model.cfg.llc_miss_cycles
  end

let mem_access model key =
  let tlb_penalty =
    if Cache.access model.dtlb key then 0 else model.cfg.tlb_miss_cycles
  in
  let c = model.clock in
  c.cycles <- c.cycles +. float_of_int (tlb_penalty + cache_walk model key)

(* Kernel execution (full-system only): charge ring-0 instructions at
   the kernel's (stall-inclusive) CPI, walk kernel data through the
   cache hierarchy — evicting user lines and inflating the observed
   footprint — and flush the TLB. The kernel's own working set is small
   and hot (its stalls are folded into kernel_cpi), but its lines are
   distinct from the application's. *)
let kernel_work model kinstr =
  model.kernel_ins <- Int64.add model.kernel_ins (Int64.of_int kinstr);
  let c = model.clock in
  c.cycles <- c.cycles +. (float_of_int kinstr *. model.cfg.kernel_cpi);
  let lines = max 16 (kinstr / 4) in
  for _ = 1 to min lines model.cfg.kernel_lines_per_syscall do
    let addr =
      Int64.logor 0xffff_8800_0000_0000L
        (Int64.mul 64L (Int64.of_int (Elfie_util.Rng.int model.rng 2048)))
    in
    ignore (cache_walk model (Cache.key addr))
  done;
  Cache.flush model.dtlb

let branch model pc taken =
  if Timing.Predictor.mispredicted model.predictor ~pc ~taken then begin
    let c = model.clock in
    c.cycles <- c.cycles +. float_of_int model.cfg.mispredict_cycles
  end

let simulate ?(mode = User_level) ?(from_marker = true) ?measure_after ?fs_init
    ?cwd ?(max_ins = 100_000_000L) cfg image =
  let sp =
    Trace.begin_span "coresim.simulate"
      ~attrs:
        [
          ( "mode",
            Trace.S (match mode with User_level -> "user" | Full_system -> "full") );
        ]
  in
  let machine, _kernel =
    Elfie_pin.Run.instantiate
      (Elfie_pin.Run.spec ~argv:[ "elfie" ] ~env:[] ?fs_init ?cwd ~seed:13L
         ~native:false image)
  in
  Elfie_pin.Tools.attach_global_profile machine;
  let model = fresh_model cfg mode in
  let clock = model.clock in
  let ins_cycles = 1.0 /. float_of_int cfg.dispatch_width in
  (* Instruction count at which the measured window opens (never, when
     -1: counts start at 1). *)
  let window_at =
    match measure_after with Some w -> Int64.to_int w | None -> -1
  in
  let syscall tid =
    model.syscalls <- Int64.add model.syscalls 1L;
    match model.mode with
    | User_level -> ()
    | Full_system ->
        let nr =
          Int64.to_int (Context.get (Machine.thread machine tid).Machine.ctx Reg.RAX)
        in
        kernel_work model (Abi.ring0_instructions nr ~bytes:64)
  in
  (* Each instruction's call-outs, chosen when it is translated: the
     caches on every access, the predictor on every branch, the kernel
     on every syscall. Instructions are counted from the machine's
     counters, not one by one. *)
  let mem _ key _ = mem_access model key in
  let plain = { Machine.before = None; read = Some mem; write = Some mem; branch = None } in
  let sys = { plain with before = Some syscall } in
  let instrument pc ins =
    match Insn.classify ins with
    | Insn.K_syscall -> sys
    | K_branch | K_call ->
        { plain with branch = Some (fun _ taken -> branch model pc taken) }
    | K_alu | K_load | K_store | K_vector | K_other -> plain
  in
  let tool = { (Elfie_pin.Pintool.empty ~name:"coresim") with instrument = Some instrument } in
  (* What happens before model instruction [n] runs: the measured
     window opens, and in full-system mode every [timer_interval_ins]
     instructions a timer interrupt runs kernel code. *)
  let event n =
    if n = window_at then begin
      model.window_start_ins <- n;
      clock.window_start_cycles <- clock.cycles +. (float_of_int n *. ins_cycles)
    end;
    match model.mode with
    | Full_system when n mod cfg.timer_interval_ins = 0 ->
        kernel_work model cfg.timer_kernel_ins
    | Full_system | User_level -> ()
  in
  let next_event n =
    let timer =
      match model.mode with
      | Full_system -> (n / cfg.timer_interval_ins + 1) * cfg.timer_interval_ins
      | User_level -> max_int
    in
    if window_at > n && window_at < timer then window_at else timer
  in
  let user_ins =
    match Elfie_pin.Pintool.start_roi ~from_marker ~max_ins machine [ tool ] with
    | None -> 0
    | Some start ->
        (* Instruction [n] of the model (from 1) is the [start + n]-th
           one the machine executes. The startup before the marker ran
           on plain chained translations. *)
        let count () = Elfie_pin.Pintool.executed machine - start in
        (* Run in segments that end where an event falls, so each
           happens between the same two instructions as in one run:
           [run ~max_ins] resumes a cut scheduler quantum exactly, and a
           fault (which retires nothing) stops a segment early. *)
        let retired () = Machine.total_retired machine in
        let rec segments () =
          let n = count () in
          event (n + 1);
          let upto =
            Int64.add (retired ()) (Int64.of_int (next_event (n + 1) - 1 - n))
          in
          Machine.run ~max_ins:(if upto < max_ins then upto else max_ins) machine;
          if
            retired () < max_ins
            && List.exists
                 (fun th -> th.Machine.state = Machine.Runnable)
                 (Machine.threads machine)
          then begin
            Machine.clear_stop machine;
            if count () > n then segments ()
          end
        in
        Machine.set_stop_on_fault machine true;
        segments ();
        count ()
  in
  let cycles = clock.cycles +. (float_of_int user_ins *. ins_cycles) in
  let completed =
    List.for_all
      (fun th -> th.Machine.state <> Machine.Runnable)
      (Machine.threads machine)
  in
  let r =
    {
      user_instructions = Int64.of_int user_ins;
      kernel_instructions = model.kernel_ins;
      runtime_cycles = Int64.of_float (Float.round cycles);
      cpi =
        (let ins = user_ins - model.window_start_ins in
         let cyc = cycles -. clock.window_start_cycles in
         if ins <= 0 then 0.0 else cyc /. float_of_int ins);
      data_footprint_bytes =
        Int64.of_int (Line_set.length model.llc_lines * cfg.llc.line_bytes);
      dtlb_misses = Int64.of_int (Cache.misses model.dtlb);
      llc_misses = Int64.of_int (Cache.misses model.llc);
      syscalls = model.syscalls;
      completed;
    }
  in
  let backend = [ ("backend", "coresim") ] in
  Metrics.inc m_sim_instructions ~labels:backend
    ~by:(Int64.to_float r.user_instructions);
  Metrics.set m_cache_miss_ratio ~labels:backend
    (Int64.to_float r.llc_misses
    /. Float.max 1.0 (Int64.to_float r.user_instructions));
  Trace.end_span sp
    ~attrs:
      [
        ("instructions", Trace.I r.user_instructions);
        ("cpi", Trace.F r.cpi);
        ("completed", Trace.B r.completed);
      ];
  r
