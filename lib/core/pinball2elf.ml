open Elfie_isa
open Elfie_machine
open Elfie_kernel
module Pinball = Elfie_pinball.Pinball
module Image = Elfie_elf.Image

type marker = Sniper | Ssc of int64 | Simics of int

type options = {
  alloc_stack_sections : bool;
  marker : marker option;
  arm_counters : bool;
  sysstate : Elfie_pin.Sysstate.t option;
  monitor_thread : bool;
  object_only : bool;
  warmup_mark : int64 option;
  extra_on_start : (Builder.t -> unit) option;
  extra_on_thread_start : (Builder.t -> unit) option;
  extra_on_exit : (Builder.t -> unit) option;
}

let default_options =
  {
    alloc_stack_sections = false;
    marker = None;
    arm_counters = true;
    sysstate = None;
    monitor_thread = false;
    object_only = false;
    warmup_mark = None;
    extra_on_start = None;
    extra_on_thread_start = None;
    extra_on_exit = None;
  }

let stack_page_threshold = 0x7ff0_0000_0000L

(* --- Page-run handling --------------------------------------------------- *)

(* Merge consecutive pages into (addr, bytes) runs so each run becomes one
   ELF section, as pinball2elf does for the .text memory image. *)
let runs_of_pages pages =
  let flush addr chunks acc =
    match chunks with
    | [] -> acc
    | _ -> (addr, Bytes.concat Bytes.empty (List.rev chunks)) :: acc
  in
  let rec go acc cur pages =
    match (cur, pages) with
    | None, [] -> List.rev acc
    | Some (addr, chunks), [] -> List.rev (flush addr chunks acc)
    | None, (a, b) :: rest -> go acc (Some (a, [ b ])) rest
    | Some (addr, chunks), (a, b) :: rest ->
        let run_len = List.fold_left (fun n c -> n + Bytes.length c) 0 chunks in
        if Int64.add addr (Int64.of_int run_len) = a then
          go acc (Some (addr, b :: chunks)) rest
        else go (flush addr chunks acc) (Some (a, [ b ])) rest
  in
  go [] None pages

let is_stack_page addr = Int64.unsigned_compare addr stack_page_threshold >= 0

(* Find a free window of [size] bytes for the startup section, scanning low
   memory upward and skipping pinball pages. *)
let find_window pages size =
  let page = Int64.of_int Addr_space.page_size in
  let size64 = Int64.of_int size in
  let overlaps cand =
    List.find_opt
      (fun (addr, data) ->
        let fin = Int64.add addr (Int64.of_int (Bytes.length data)) in
        Int64.unsigned_compare addr (Int64.add cand size64) < 0
        && Int64.unsigned_compare cand fin < 0)
      pages
  in
  let rec go cand tries =
    if tries > 65536 then failwith "pinball2elf: no free window for startup code"
    else
      match overlaps cand with
      | None -> cand
      | Some (addr, data) ->
          let fin = Int64.add addr (Int64.of_int (Bytes.length data)) in
          let next =
            Int64.mul (Int64.div (Int64.add fin (Int64.sub page 1L)) page) page
          in
          go next (tries + 1)
  in
  go 0x10000L 0

(* --- Code-emission helpers ----------------------------------------------- *)

let mov_imm b r v = Builder.ins b (Insn.Mov_ri (r, v))

let emit_syscall b nr =
  mov_imm b Reg.RAX (Int64.of_int nr);
  Builder.ins b Insn.Syscall

let emit_marker b = function
  | None -> ()
  | Some Sniper -> Builder.ins b (Insn.Magic 0x51)
  | Some (Ssc payload) -> Builder.ins b (Insn.Ssc_marker payload)
  | Some (Simics code) -> Builder.ins b (Insn.Magic code)

(* Startup instructions that retire between the arm point and application
   code (the arming syscall itself, two pops, the RSP restore, the final
   jump and an optional marker); the armed target is padded by this amount
   so the counter fires after exactly the recorded region icount. *)
let post_arm_overhead opts =
  5 + (match opts.marker with Some _ -> 1 | None -> 0)

(* Unmap whatever the loader placed over one checkpointed stack run, remap
   the range, and copy the shadow bytes back to their home addresses. *)
let emit_stack_remap b ~target ~len ~shadow =
  mov_imm b Reg.RDI target;
  mov_imm b Reg.RSI (Int64.of_int len);
  emit_syscall b Abi.sys_munmap;
  mov_imm b Reg.RDI target;
  mov_imm b Reg.RSI (Int64.of_int len);
  mov_imm b Reg.RDX 3L;
  mov_imm b Reg.R10 (Int64.of_int Abi.map_fixed);
  emit_syscall b Abi.sys_mmap;
  Builder.mov_label b Reg.RSI shadow;
  mov_imm b Reg.RDI target;
  mov_imm b Reg.RCX (Int64.of_int ((len + 7) / 8));
  let loop = Builder.here b in
  Builder.ins b (Insn.Load (Insn.W64, Reg.RAX, Insn.mem_base Reg.RSI));
  Builder.ins b (Insn.Store (Insn.W64, Insn.mem_base Reg.RDI, Reg.RAX));
  Builder.ins b (Insn.Alu_ri (Insn.Add, Reg.RSI, 8L));
  Builder.ins b (Insn.Alu_ri (Insn.Add, Reg.RDI, 8L));
  Builder.ins b (Insn.Alu_ri (Insn.Sub, Reg.RCX, 1L));
  Builder.jcc b Insn.Ne loop

(* elfie_on_start body: SYSSTATE descriptor re-opening and brk restore. *)
let emit_on_start b opts fd_name_labels =
  match opts.sysstate with
  | None -> ()
  | Some ss ->
      List.iter
        (fun (fd, _name) ->
          let name_label = List.assoc fd fd_name_labels in
          Builder.mov_label b Reg.RDI name_label;
          mov_imm b Reg.RSI 0L;
          mov_imm b Reg.RDX 0L;
          emit_syscall b Abi.sys_open;
          Builder.ins b (Insn.Mov_rr (Reg.RDI, Reg.RAX));
          mov_imm b Reg.RSI (Int64.of_int fd);
          emit_syscall b Abi.sys_dup2;
          let skip_close = Builder.new_label b in
          Builder.ins b (Insn.Alu_rr (Insn.Cmp, Reg.RDI, Reg.RSI));
          Builder.jcc b Insn.Eq skip_close;
          emit_syscall b Abi.sys_close;
          Builder.bind b skip_close)
        ss.Elfie_pin.Sysstate.fd_files;
      if ss.brk_start <> 0L then begin
        mov_imm b Reg.RDI ss.brk_start;
        emit_syscall b Abi.sys_brk
      end

(* --- Conversion ------------------------------------------------------------ *)

let exit_message = "ELFIE-EXIT\n"

let pop_order =
  [ Reg.RCX; Reg.RDX; Reg.RBX; Reg.RBP; Reg.RSI; Reg.RDI; Reg.R8; Reg.R9;
    Reg.R10; Reg.R11; Reg.R12; Reg.R13; Reg.R14; Reg.R15; Reg.RAX ]

let object_image (pb : Pinball.t) =
  let sections =
    List.map
      (fun (addr, data) ->
        Image.section ~writable:true ~executable:true
          ~name:(Printf.sprintf ".pb.0x%Lx" addr) ~addr data)
      (runs_of_pages pb.pages)
  in
  let regs =
    Bytes.concat Bytes.empty (Array.to_list (Array.map Context.to_bytes pb.contexts))
  in
  let reg_section = Image.section ~alloc:false ~name:".elfie.regs" ~addr:0L regs in
  {
    Image.exec = false;
    entry = 0L;
    sections = sections @ [ reg_section ];
    symbols = [];
  }

let convert ?(options = default_options) (pb : Pinball.t) =
  if options.object_only then object_image pb
  else begin
    let opts = options in
    let n = Pinball.num_threads pb in
    if n = 0 then failwith "pinball2elf: pinball has no threads";
    let all_runs = runs_of_pages pb.pages in
    let stack_runs, normal_runs =
      List.partition (fun (addr, _) -> is_stack_page addr) all_runs
    in
    let b = Builder.create () in
    let start = Builder.new_label ~name:"_start" b in
    let thread_init = Builder.new_label ~name:"thread_init" b in
    let data_start = Builder.new_label b in
    let shadow_labels = List.map (fun _ -> Builder.new_label b) stack_runs in
    let fd_name_labels =
      match opts.sysstate with
      | None -> []
      | Some ss -> List.map (fun (fd, _) -> (fd, Builder.new_label b)) ss.fd_files
    in
    let ctx_stack = Array.init n (fun _ -> Builder.new_label b) in
    let entries =
      Array.init n (fun i ->
          Builder.new_label ~name:(Printf.sprintf "elfie_thread_entry_%d" i) b)
    in
    let rip_slots =
      Array.init n (fun i -> Builder.new_label ~name:(Printf.sprintf ".t%d.rip" i) b)
    in
    let msg = Builder.new_label b in
    (* ---- startup code ---- *)
    Builder.bind b start;
    List.iteri
      (fun i (target, data) ->
        emit_stack_remap b ~target ~len:(Bytes.length data)
          ~shadow:(List.nth shadow_labels i))
      stack_runs;
    let on_start = Builder.here ~name:"elfie_on_start" b in
    ignore on_start;
    emit_on_start b opts fd_name_labels;
    (match opts.extra_on_start with Some emit -> emit b | None -> ());
    for i = 1 to n - 1 do
      Builder.mov_label b Reg.RDI thread_init;
      Builder.mov_label b Reg.RSI ctx_stack.(i);
      emit_syscall b Abi.sys_clone
    done;
    let monitor = opts.monitor_thread || opts.extra_on_exit <> None in
    if monitor then begin
      (* elfie_on_exit support: spawn the main app thread, watch it die,
         then report and terminate the process. *)
      Builder.mov_label b Reg.RDI thread_init;
      Builder.mov_label b Reg.RSI ctx_stack.(0);
      emit_syscall b Abi.sys_clone;
      Builder.ins b (Insn.Mov_rr (Reg.RBX, Reg.RAX));
      let loop = Builder.here b in
      Builder.ins b Insn.Pause;
      Builder.ins b (Insn.Mov_rr (Reg.RDI, Reg.RBX));
      emit_syscall b Abi.sys_thread_alive;
      Builder.ins b (Insn.Alu_ri (Insn.Cmp, Reg.RAX, 0L));
      Builder.jcc b Insn.Ne loop;
      let on_exit = Builder.here ~name:"elfie_on_exit" b in
      ignore on_exit;
      (match opts.extra_on_exit with Some emit -> emit b | None -> ());
      mov_imm b Reg.RDI 1L;
      Builder.mov_label b Reg.RSI msg;
      mov_imm b Reg.RDX (Int64.of_int (String.length exit_message));
      emit_syscall b Abi.sys_write;
      mov_imm b Reg.RDI 0L;
      emit_syscall b Abi.sys_exit_group
    end
    else begin
      Builder.mov_label b Reg.RSP ctx_stack.(0);
      Builder.jmp b thread_init
    end;
    (* Shared thread-initialization function: restore extended state, then
       pop FS/GS bases, flags and GPRs from the context stack; RET lands in
       the per-thread entry whose address sits at the bottom. *)
    Builder.bind b thread_init;
    Builder.ins b (Insn.Mov_rr (Reg.RAX, Reg.RSP));
    Builder.ins b (Insn.Alu_ri (Insn.Sub, Reg.RAX, Int64.of_int Context.xsave_size));
    Builder.ins b (Insn.Ldctx Reg.RAX);
    Builder.ins b (Insn.Pop Reg.RAX);
    Builder.ins b (Insn.Wrfsbase Reg.RAX);
    Builder.ins b (Insn.Pop Reg.RAX);
    Builder.ins b (Insn.Wrgsbase Reg.RAX);
    Builder.ins b Insn.Popf;
    List.iter (fun r -> Builder.ins b (Insn.Pop r)) pop_order;
    Builder.ins b Insn.Ret;
    (* Per-thread entries: arm the graceful-exit counter, drop the ROI
       marker, restore the real RSP and jump to the checkpointed RIP. *)
    Array.iteri
      (fun i entry ->
        Builder.bind b entry;
        (match opts.extra_on_thread_start with Some emit -> emit b | None -> ());
        if opts.arm_counters then begin
          Builder.ins b (Insn.Push Reg.RAX);
          Builder.ins b (Insn.Push Reg.RDI);
          (match opts.warmup_mark with
          | Some warmup when i = 0 ->
              (* Snapshot the counters once the warmup prefix has run:
                 mark syscall + 3-instruction arm sequence + the epilogue
                 retire before application code, hence the pad. *)
              mov_imm b Reg.RDI
                (Int64.add warmup (Int64.of_int (3 + post_arm_overhead opts)));
              emit_syscall b Abi.sys_vperf_mark
          | Some _ | None -> ());
          mov_imm b Reg.RDI
            (Int64.add pb.icounts.(i) (Int64.of_int (post_arm_overhead opts)));
          emit_syscall b Abi.sys_vperf_arm;
          Builder.ins b (Insn.Pop Reg.RDI);
          Builder.ins b (Insn.Pop Reg.RAX)
        end;
        emit_marker b opts.marker;
        mov_imm b Reg.RSP (Context.get pb.contexts.(i) Reg.RSP);
        Builder.jmp_mem b rip_slots.(i))
      entries;
    (* ---- startup data ---- *)
    Builder.align b 16;
    Builder.bind b data_start;
    Array.iteri
      (fun i ctx ->
        Builder.align b 16;
        let xmm = Builder.new_label ~name:(Printf.sprintf ".t%d.xmm" i) b in
        Builder.bind b xmm;
        Builder.raw b (Context.xsave ctx);
        Builder.bind b ctx_stack.(i);
        let named_quad name v =
          let l = Builder.new_label ~name:(Printf.sprintf ".t%d.%s" i name) b in
          Builder.bind b l;
          Builder.quad b v
        in
        named_quad "fs_base" ctx.Context.fs_base;
        named_quad "gs_base" ctx.Context.gs_base;
        named_quad "flags" (Reg.flags_to_word ctx.Context.flags);
        List.iter (fun r -> named_quad (Reg.gpr_name r) (Context.get ctx r)) pop_order;
        Builder.quad_label b entries.(i);
        Builder.bind b rip_slots.(i);
        Builder.quad b (Context.rip ctx))
      pb.contexts;
    List.iteri
      (fun i (_, data) ->
        Builder.align b 8;
        Builder.bind b (List.nth shadow_labels i);
        Builder.raw b (Bytes.copy data))
      stack_runs;
    (match opts.sysstate with
    | None -> ()
    | Some ss ->
        List.iter
          (fun (fd, name) ->
            Builder.bind b (List.assoc fd fd_name_labels);
            Builder.raw b (Bytes.of_string (name ^ "\000")))
          ss.fd_files);
    Builder.bind b msg;
    Builder.raw b (Bytes.of_string exit_message);
    (* ---- assemble and lay out sections ---- *)
    let probe = Builder.assemble b ~base:0L in
    let base = find_window pb.pages (Bytes.length probe.Builder.code) in
    let prog = Builder.assemble b ~base in
    let data_off = Int64.to_int (Int64.sub (Builder.resolve b prog data_start) base) in
    let code_len = Bytes.length prog.Builder.code in
    let text_sec =
      Image.section ~executable:true ~name:".elfie.text" ~addr:base
        (Bytes.sub prog.Builder.code 0 data_off)
    in
    let data_sec =
      Image.section ~writable:true ~name:".elfie.data"
        ~addr:(Int64.add base (Int64.of_int data_off))
        (Bytes.sub prog.Builder.code data_off (code_len - data_off))
    in
    let run_section ~prefix ~alloc (addr, data) =
      Image.section ~alloc ~writable:true ~executable:true
        ~name:(Printf.sprintf ".%s.0x%Lx" prefix addr)
        ~addr data
    in
    let normal_secs = List.map (run_section ~prefix:"pb" ~alloc:true) normal_runs in
    let stack_secs =
      List.map
        (run_section ~prefix:"stack" ~alloc:opts.alloc_stack_sections)
        stack_runs
    in
    let is_func name =
      name = "_start" || name = "thread_init" || name = "elfie_on_start"
      || name = "elfie_on_exit"
      || String.length name >= 18 && String.sub name 0 18 = "elfie_thread_entry"
    in
    let symbols =
      List.map
        (fun (name, value) -> { Image.sym_name = name; value; func = is_func name })
        prog.Builder.symbols
      (* Application symbols carried by the pinball: symbolic debugging
         of the embedded region. *)
      @ List.map
          (fun (name, value) -> { Image.sym_name = name; value; func = false })
          pb.symbols
    in
    {
      Image.exec = true;
      entry = base;
      sections = (text_sec :: data_sec :: normal_secs) @ stack_secs;
      symbols;
    }
  end

let context_listing (pb : Pinball.t) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "; initial thread contexts (vx86asm syntax)\n";
  Array.iteri
    (fun i ctx ->
      Buffer.add_string buf (Printf.sprintf "\n.align 16\nt%d_xsave:\n" i);
      let xsave = Context.xsave ctx in
      for lane = 0 to (Bytes.length xsave / 8) - 1 do
        if lane mod 2 = 0 then
          Buffer.add_string buf (Printf.sprintf "; xmm%d\n" (lane / 2));
        Buffer.add_string buf
          (Printf.sprintf "    .quad 0x%Lx\n" (Bytes.get_int64_le xsave (lane * 8)))
      done;
      Buffer.add_string buf (Printf.sprintf "t%d_ctx:\n" i);
      let quad name v =
        Buffer.add_string buf (Printf.sprintf "    .quad 0x%-18Lx ; %s\n" v name)
      in
      quad "fs_base" ctx.Context.fs_base;
      quad "gs_base" ctx.Context.gs_base;
      quad "rflags" (Reg.flags_to_word ctx.Context.flags);
      List.iter (fun r -> quad (Reg.gpr_name r) (Context.get ctx r)) pop_order;
      quad "rsp" (Context.get ctx Reg.RSP);
      quad "rip" (Context.rip ctx))
    pb.contexts;
  Buffer.contents buf

let region ?(options = default_options) ~warmup pb =
  let sysstate = Elfie_pin.Sysstate.analyze pb in
  let options =
    {
      options with
      sysstate = Some sysstate;
      marker = Some (Ssc 0x4649L);
      warmup_mark = (if warmup > 0L then Some warmup else None);
    }
  in
  (convert ~options pb, sysstate)

let linker_script image =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "SECTIONS\n{\n";
  List.iter
    (fun s ->
      Buffer.add_string buf
        (Printf.sprintf "  %s 0x%Lx : { /* %d bytes%s */ }\n" s.Image.name s.addr
           (Bytes.length s.data)
           (if s.alloc then "" else ", not loaded")))
    image.Image.sections;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
