module Pinball = Elfie_pinball.Pinball
module Image = Elfie_elf.Image
module Diag = Elfie_util.Diag

(* Collect diagnostics with a local accumulator. *)
let collecting fn =
  let acc = ref [] in
  let emit d = acc := d :: !acc in
  fn emit;
  List.rev !acc

(* --- Pinball consistency ------------------------------------------------- *)

let pinball (pb : Pinball.t) =
  let art suffix = pb.name ^ "." ^ suffix in
  collecting (fun emit ->
      let n = Pinball.num_threads pb in
      (* Per-thread structures must agree on the thread count. *)
      if Array.length pb.icounts <> n then
        emit
          (Diag.f ~artifact:(art "global.log") Diag.Thread_mismatch
             "%d icount entries for %d register contexts"
             (Array.length pb.icounts) n);
      if Array.length pb.injections < n then
        emit
          (Diag.f ~artifact:(art "inj") Diag.Thread_mismatch
             "syscall logs for %d thread(s), but %d started the region"
             (Array.length pb.injections) n);
      (* Region icounts are non-negative. *)
      Array.iteri
        (fun i ic ->
          if Int64.compare ic 0L < 0 then
            emit
              (Diag.f ~artifact:(art "global.log") Diag.Count_out_of_range
                 "thread %d has negative region icount %Ld" i ic))
        pb.icounts;
      (* Schedule: thread ids must exist; per-thread slice totals must
         reproduce the recorded region icounts (threads created inside
         the region appear in the schedule but carry no icount). *)
      let sched_total = Array.make (max n (Array.length pb.injections)) 0L in
      List.iter
        (fun (tid, slice) ->
          if tid < 0 || tid >= Array.length sched_total then
            emit
              (Diag.f ~artifact:(art "order") Diag.Thread_mismatch
                 "schedule references thread %d, outside the %d recorded" tid
                 (Array.length sched_total))
          else if slice < 0 then
            emit
              (Diag.f ~artifact:(art "order") Diag.Count_out_of_range
                 "negative schedule slice %d for thread %d" slice tid)
          else
            sched_total.(tid) <-
              Int64.add sched_total.(tid) (Int64.of_int slice))
        pb.schedule;
      if pb.schedule <> [] then
        for tid = 0 to n - 1 do
          if sched_total.(tid) <> pb.icounts.(tid) then
            emit
              (Diag.f ~artifact:(art "order") Diag.Icount_mismatch
                 "thread %d: schedule slices total %Ld but global.log records \
                  %Ld region instructions"
                 tid sched_total.(tid) pb.icounts.(tid))
        done;
      (* Memory image: sorted, page-disjoint. *)
      let rec check_pages = function
        | (a, da) :: ((b, _) :: _ as rest) ->
            let fin = Int64.add a (Int64.of_int (Bytes.length da)) in
            if Int64.unsigned_compare a b > 0 then
              emit
                (Diag.f ~artifact:(art "text") Diag.Malformed
                   "pages out of order: 0x%Lx after 0x%Lx" b a)
            else if Int64.unsigned_compare fin b > 0 then
              emit
                (Diag.f ~artifact:(art "text") Diag.Segment_overlap
                   "page at 0x%Lx (%d bytes) overlaps page at 0x%Lx" a
                   (Bytes.length da) b);
            check_pages rest
        | _ -> ()
      in
      check_pages pb.pages;
      if pb.fat && pb.pages = [] then
        emit
          (Diag.f ~artifact:(art "text") Diag.Malformed
             "fat pinball carries no memory image");
      (* A fat pinball carries every mapped page, so every thread's start
         PC and every carried symbol must land inside the image. *)
      let in_image v =
        List.exists
          (fun (a, d) ->
            Int64.unsigned_compare a v <= 0
            && Int64.unsigned_compare v (Int64.add a (Int64.of_int (Bytes.length d)))
               < 0)
          pb.pages
      in
      if pb.fat then begin
        Array.iteri
          (fun i ctx ->
            let rip = Elfie_machine.Context.rip ctx in
            if not (in_image rip) then
              emit
                (Diag.f
                   ~artifact:(art (Printf.sprintf "%d.reg" i))
                   Diag.Entry_out_of_bounds
                   "thread %d starts at 0x%Lx, outside the memory image" i rip))
          pb.contexts;
        List.iter
          (fun (name, value) ->
            if not (in_image value) then
              emit
                (Diag.f ~artifact:(art "global.log") Diag.Symbol_out_of_bounds
                   "symbol %S = 0x%Lx points outside the memory image" name
                   value))
          pb.symbols
      end)

(* --- ELF image consistency ----------------------------------------------- *)

let elf ?(artifact = "<elf-image>") (image : Image.t) =
  collecting (fun emit ->
      (* Distinct section names (the writer's string tables assume it). *)
      let seen = Hashtbl.create 16 in
      List.iter
        (fun (s : Image.section) ->
          if Hashtbl.mem seen s.name then
            emit
              (Diag.f ~artifact Diag.Malformed "duplicate section name %s"
                 s.name)
          else Hashtbl.replace seen s.name ();
          if s.align <> 0 && s.align land (s.align - 1) <> 0 then
            emit
              (Diag.f ~artifact Diag.Malformed
                 "section %s alignment %d is not a power of two" s.name s.align))
        image.sections;
      (* Loadable segments must be disjoint: overlapping PT_LOADs mean
         the ELFie would silently clobber part of its own image. *)
      let segs =
        List.filter_map
          (fun (s : Image.section) ->
            if s.alloc && s.kind <> Image.Nobits && Bytes.length s.data > 0 then
              Some (s.addr, Int64.add s.addr (Int64.of_int (Bytes.length s.data)), s.name)
            else None)
          image.sections
        |> List.sort (fun (a, _, _) (b, _, _) -> Int64.unsigned_compare a b)
      in
      let rec check_segs = function
        | (a, fin, na) :: ((b, _, nb) :: _ as rest) ->
            if Int64.unsigned_compare fin b > 0 then
              emit
                (Diag.f ~artifact Diag.Segment_overlap
                   "loadable sections %s (0x%Lx..0x%Lx) and %s (0x%Lx..) overlap"
                   na a fin nb b);
            check_segs rest
        | _ -> ()
      in
      check_segs segs;
      let inside ~exec_only v =
        List.exists
          (fun (s : Image.section) ->
            s.alloc
            && ((not exec_only) || s.executable)
            && Int64.unsigned_compare s.addr v <= 0
            && Int64.unsigned_compare v
                 (Int64.add s.addr (Int64.of_int (Bytes.length s.data)))
               < 0)
          image.sections
      in
      (* An executable image must start in executable memory. *)
      if image.exec && not (inside ~exec_only:true image.entry) then
        emit
          (Diag.f ~artifact Diag.Entry_out_of_bounds
             "entry point 0x%Lx is not inside an executable section"
             image.entry);
      (* Function symbols must resolve to loaded memory. *)
      if image.exec then
        List.iter
          (fun (sym : Image.symbol) ->
            if sym.func && not (inside ~exec_only:false sym.value) then
              emit
                (Diag.f ~artifact Diag.Symbol_out_of_bounds
                   "function symbol %S = 0x%Lx is not inside a loadable section"
                   sym.sym_name sym.value))
          image.symbols)
