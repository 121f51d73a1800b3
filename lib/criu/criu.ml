open Elfie_util
open Elfie_machine
open Elfie_kernel

type t = {
  pages : (int64 * bytes) list;
  contexts : Context.t array;
  fds : (int * Vkernel.fd_state) list;
  brk : int64;
  cwd : string;
}

let checkpoint machine kernel =
  let live =
    List.filter (fun th -> th.Machine.state = Machine.Runnable)
      (Machine.threads machine)
  in
  List.iteri
    (fun i th ->
      if th.Machine.tid <> i then
        failwith "Criu.checkpoint: exited thread leaves a tid gap")
    live;
  {
    (* Freeze the address space copy-on-write instead of deep-copying
       every page: the checkpoint aliases the live page bytes, and any
       later write in the checkpointed machine unshares its page first,
       so the aliased bytes stay exactly as captured. O(pages) pointer
       work, zero byte copies. *)
    pages = Addr_space.frozen_pages (Addr_space.freeze (Machine.mem machine));
    contexts = Array.of_list (List.map (fun th -> Context.copy th.Machine.ctx) live);
    fds = Vkernel.fd_table kernel;
    brk = Vkernel.brk kernel;
    cwd = Vkernel.cwd kernel;
  }

(* --- serialization ---------------------------------------------------------- *)

let magic = 0x56435249 (* "IRCV" *)

let to_files t =
  let w = Byteio.Writer.create ~capacity:4096 () in
  Byteio.Writer.u32 w magic;
  Byteio.Writer.u32 w (List.length t.pages);
  List.iter
    (fun (addr, data) ->
      Byteio.Writer.u64 w addr;
      Byteio.Writer.u32 w (Bytes.length data);
      Byteio.Writer.bytes w data)
    t.pages;
  Byteio.Writer.u32 w (Array.length t.contexts);
  Array.iter
    (fun ctx ->
      let b = Context.to_bytes ctx in
      Byteio.Writer.u32 w (Bytes.length b);
      Byteio.Writer.bytes w b)
    t.contexts;
  Byteio.Writer.u32 w (List.length t.fds);
  List.iter
    (fun (fd, state) ->
      Byteio.Writer.u32 w fd;
      match state with
      | Vkernel.Fd_console -> Byteio.Writer.u8 w 0
      | Vkernel.Fd_file { path; pos } ->
          Byteio.Writer.u8 w 1;
          Byteio.Writer.u32 w (String.length path);
          Byteio.Writer.string w path;
          Byteio.Writer.u32 w pos)
    t.fds;
  Byteio.Writer.u64 w t.brk;
  Byteio.Writer.u32 w (String.length t.cwd);
  Byteio.Writer.string w t.cwd;
  [ ("image", Bytes.to_string (Byteio.Writer.contents w)) ]

let image_bytes t =
  match to_files t with [ (_, s) ] -> String.length s | _ -> assert false
