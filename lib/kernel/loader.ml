open Elfie_machine

exception Exec_failed of string

exception
  Stack_collision of { reserved : int; needed : int; stack_top : int64 }

type layout = {
  entry : int64;
  initial_rsp : int64;
  stack_top : int64;
  stack_pages_reserved : int;
}

let stack_pages = 64 (* 256 KiB *)
let stack_ceiling = 0x7fff_ffff_f000L

(* Pages needed just to pass argc/argv/envp/auxv plus a working margin;
   below this the process cannot start. *)
let min_stack_pages = 16

let page = Int64.of_int Addr_space.page_size

let auxv_entries ~entry ~random_ptr =
  [ (6L, page); (9L, entry); (25L, random_ptr); (0L, 0L) ]

let build_stack mem ~rsp_top ~entry ~argv ~env =
  (* Strings live at the very top; pointer arrays and argc below them. *)
  let cursor = ref rsp_top in
  let push_string s =
    let len = String.length s + 1 in
    cursor := Int64.sub !cursor (Int64.of_int len);
    Addr_space.write_bytes mem !cursor (Bytes.of_string (s ^ "\000"));
    !cursor
  in
  let argv_ptrs = List.map push_string argv in
  let env_ptrs = List.map push_string env in
  cursor := Int64.sub !cursor 16L;
  let random_ptr = !cursor in
  Addr_space.write_bytes mem random_ptr (Bytes.make 16 '\042');
  (* Align, then lay out auxv / envp / argv / argc bottom-up. *)
  let auxv = auxv_entries ~entry ~random_ptr in
  let words =
    [ Int64.of_int (List.length argv) ]
    @ argv_ptrs @ [ 0L ] @ env_ptrs @ [ 0L ]
    @ List.concat_map (fun (k, v) -> [ k; v ]) auxv
  in
  let total = 8 * List.length words in
  let base = Int64.logand (Int64.sub !cursor (Int64.of_int total)) (Int64.lognot 15L) in
  List.iteri
    (fun i w -> Addr_space.write mem (Int64.add base (Int64.of_int (8 * i))) 8 w)
    words;
  base

let load kernel machine image ~argv ~env =
  if not image.Elfie_elf.Image.exec then
    raise (Exec_failed "not an executable image");
  let mem = Machine.mem machine in
  (* 1. Map allocatable segments. *)
  let max_end = ref 0x40_0000L in
  List.iter
    (fun (vaddr, data, _flags) ->
      Addr_space.store mem vaddr data;
      let fin = Int64.add vaddr (Int64.of_int (Bytes.length data)) in
      if Int64.unsigned_compare fin !max_end > 0 && Int64.unsigned_compare fin 0x7000_0000_0000L < 0
      then max_end := fin)
    (Elfie_elf.Image.loadable image);
  (* 2. Program break starts just past the highest low-half segment. *)
  let brk0 = Int64.mul (Int64.div (Int64.add !max_end (Int64.sub page 1L)) page) page in
  Vkernel.force_brk kernel brk0;
  (* 3. Reserve the stack downward from the randomized top. *)
  let stack_top = Int64.sub stack_ceiling (Vkernel.stack_random_offset kernel) in
  let reserved = ref 0 in
  (let continue_ = ref true in
   while !continue_ && !reserved < stack_pages do
     let addr = Int64.sub stack_top (Int64.of_int ((!reserved + 1) * Addr_space.page_size)) in
     if Addr_space.is_mapped mem addr then continue_ := false
     else begin
       Addr_space.map mem ~addr ~len:Addr_space.page_size;
       incr reserved
     end
   done);
  if !reserved < min_stack_pages then
    raise
      (Stack_collision
         { reserved = !reserved; needed = min_stack_pages; stack_top });
  let entry = image.Elfie_elf.Image.entry in
  let initial_rsp = build_stack mem ~rsp_top:stack_top ~entry ~argv ~env in
  (* 4. Initial thread. *)
  let ctx = Context.create () in
  Context.set_rip ctx entry;
  Context.set ctx Elfie_isa.Reg.RSP initial_rsp;
  let tid = Machine.add_thread machine ctx in
  (tid, { entry; initial_rsp; stack_top; stack_pages_reserved = !reserved })
