open Nfp_nf
open Nfp_packet

type hop = To_nf of string | To_merger of int | Deliver

type action =
  | Copy of { src_version : int; dst_version : int; full : bool }
  | Distribute of { version : int; targets : hop list }

type deliverer = D_nf of string | D_merger of int

type expect = { deliverer : deliverer; version : int; members : string list }

type merge_spec = {
  id : int;
  result_version : int;
  expected : expect list;
  ops : Merge_op.t list;
  drop_policy : [ `Any | `Priority_to of deliverer ];
  next : action list;
}

type nf_entry = {
  nf : string;
  version : int;
  actions : action list;
  nil_target : int option;
}

type plan = {
  graph : Graph.t;
  classifier_actions : action list;
  nf_entries : nf_entry list;
  merges : merge_spec list;
  version_count : int;
  header_copies : int;
  full_copies : int;
  serial_order : string list;
  priority : int;
}

exception Plan_error of string

(* Merge adjacent Distribute actions on the same version so FT rows read
   like the paper's "Distribute(v1, [4, 6])". Copies stay in place and
   ahead of the distributes that reference their destination. *)
let simplify actions =
  let copies = List.filter (function Copy _ -> true | Distribute _ -> false) actions in
  let dist =
    List.filter_map
      (function Distribute { version; targets } -> Some (version, targets) | Copy _ -> None)
      actions
  in
  let merged =
    List.fold_left
      (fun acc (version, targets) ->
        match List.assoc_opt version acc with
        | Some prev -> (version, prev @ targets) :: List.remove_assoc version acc
        | None -> acc @ [ (version, targets) ])
      [] dist
  in
  copies @ List.map (fun (version, targets) -> Distribute { version; targets }) merged

type branch_info = {
  term : Graph.t;
  reads : Field.t list;
  writes : Field.t list;
  add_rm : bool;
  uses_payload : bool;
}

let branch_info profile_of term =
  let profile =
    Action.normalize (List.concat_map profile_of (Graph.nfs term))
  in
  let reads = Action.reads profile and writes = Action.writes profile in
  {
    term;
    reads;
    writes;
    add_rm = Action.adds_or_removes_headers profile;
    (* Length readers need the true length, which a header-only copy
       destroys, so they count as payload users for copy sizing. *)
    uses_payload =
      List.exists (fun f -> f = Field.Payload || f = Field.Len) (reads @ writes);
  }

let intersects a b = List.exists (fun x -> List.mem x b) a

let branch_needs_copy ~copy_mode index infos info =
  match copy_mode with
  | `Copy_all -> index > 0
  | `Share_all -> false
  | `Auto ->
      info.add_rm
      || List.exists
           (fun (j, other) ->
             j <> index && intersects info.writes (other.reads @ other.writes))
           (List.mapi (fun j o -> (j, o)) infos)

(* [priority_pairs] are (hi, lo) instance names from Priority rules;
   only {!of_output} has them. *)
let plan_with_pairs ?(copy_mode = `Auto) ~priority_pairs ?(priority = 0) ~profile_of graph =
  match Graph.well_formed graph with
  | Error e -> Error e
  | Ok () -> (
      try
        (* Profiles must resolve for every NF up front. *)
        List.iter
          (fun n ->
            match profile_of n with
            | _ -> ()
            | exception Not_found -> raise (Plan_error (Printf.sprintf "no profile for NF %S" n)))
          (Graph.nfs graph);
        let entries : (string, nf_entry) Hashtbl.t = Hashtbl.create 16 in
        let merges = ref [] in
        let next_version = ref 1 in
        let next_merge = ref 0 in
        let header_copies = ref 0 and full_copies = ref 0 in
        let fresh_version () =
          incr next_version;
          if !next_version > Nfp_packet.Meta.max_version then
            raise (Plan_error "graph needs more than 15 packet versions (4-bit limit)");
          !next_version
        in
        (* Returns the actions that inject a packet into [term] and the
           identity of whoever finally hands the packet onward. *)
        let rec build term ~version ~enclosing ~next : action list * deliverer * string list =
          match term with
          | Graph.Nf name ->
              Hashtbl.replace entries name
                { nf = name; version; actions = simplify next; nil_target = enclosing };
              ([ Distribute { version; targets = [ To_nf name ] } ], D_nf name, [ name ])
          | Graph.Seq ts ->
              (* Wire back to front: each element's FT points at the next
                 element's entry actions; the Seq's deliverer is the last
                 element's. *)
              let rec wire = function
                | [] -> raise (Plan_error "empty Seq")
                | [ last ] -> build last ~version ~enclosing ~next
                | t :: rest ->
                    let rest_entry, last_deliverer, rest_serial = wire rest in
                    let entry, _, serial = build t ~version ~enclosing ~next:rest_entry in
                    (entry, last_deliverer, serial @ rest_serial)
              in
              wire ts
          | Graph.Par branches ->
              let id = !next_merge in
              incr next_merge;
              let infos = List.map (branch_info profile_of) branches in
              let assigned =
                List.mapi
                  (fun i info ->
                    if branch_needs_copy ~copy_mode i infos info then begin
                      let v = fresh_version () in
                      if info.uses_payload then incr full_copies else incr header_copies;
                      (info, v, true)
                    end
                    else (info, version, false))
                  infos
              in
              let copy_actions =
                List.filter_map
                  (fun (info, v, copied) ->
                    if copied then
                      Some (Copy { src_version = version; dst_version = v; full = info.uses_payload })
                    else None)
                  assigned
              in
              let ops =
                List.concat_map
                  (fun (info, v, copied) ->
                    if not copied then []
                    else
                      List.map
                        (fun f -> Merge_op.Modify { dst = version; src = v; field = f })
                        (* Length is restored by the payload transplant;
                           no merge op of its own. *)
                        (List.sort Field.compare
                           (List.filter (fun f -> f <> Field.Len) info.writes))
                      @ if info.add_rm then [ Merge_op.Align_headers { dst = version; src = v } ] else [])
                  assigned
              in
              let built =
                List.map
                  (fun (info, v, copied) ->
                    let entry, deliverer, serial =
                      build info.term ~version:v ~enclosing:(Some id)
                        ~next:[ Distribute { version = v; targets = [ To_merger id ] } ]
                    in
                    (entry, deliverer, v, info, copied, serial))
                  assigned
              in
              let expected =
                List.map
                  (fun (_, d, v, info, _, _) ->
                    { deliverer = d; version = v; members = Graph.nfs info.term })
                  built
              in
              let drop_policy =
                let branch_of nf_name =
                  List.find_map
                    (fun (_, d, _, info, _, _) ->
                      if Graph.contains info.term nf_name then Some d else None)
                    built
                in
                let winners =
                  List.filter_map
                    (fun (hi, lo) ->
                      match (branch_of hi, branch_of lo) with
                      | Some bhi, Some blo when bhi <> blo -> Some bhi
                      | _ -> None)
                    priority_pairs
                in
                (* The winning branch is one that never loses a pair. *)
                let losers =
                  List.filter_map
                    (fun (hi, lo) ->
                      match (branch_of hi, branch_of lo) with
                      | Some bhi, Some blo when bhi <> blo -> Some blo
                      | _ -> None)
                    priority_pairs
                in
                match List.filter (fun w -> not (List.mem w losers)) winners with
                | w :: _ -> `Priority_to w
                | [] -> `Any
              in
              merges :=
                {
                  id;
                  result_version = version;
                  expected;
                  ops;
                  drop_policy;
                  next = simplify next;
                }
                :: !merges;
              let entry =
                simplify
                  (copy_actions @ List.concat_map (fun (e, _, _, _, _, _) -> e) built)
              in
              (* The serialization this parallel block is equivalent to:
                 buffer-sharing branches first (they observe the pristine
                 primary copy), then copy branches in merge-op order —
                 and dropping branches last of all, because a nil packet
                 only discards the merge result: every sibling branch
                 still processes the packet, exactly as if the dropper
                 had run at the end. *)
              let branch_drops (info : branch_info) =
                List.exists
                  (fun n -> Action.may_drop (profile_of n))
                  (Graph.nfs info.term)
              in
              let ordered =
                List.stable_sort
                  (fun (_, _, v1, i1, c1, _) (_, _, v2, i2, c2, _) ->
                    compare (branch_drops i1, c1, v1) (branch_drops i2, c2, v2))
                  built
              in
              let serial = List.concat_map (fun (_, _, _, _, _, s) -> s) ordered in
              (entry, D_merger id, serial)
        in
        let classifier_actions, _, serial_order =
          build graph ~version:1 ~enclosing:None
            ~next:[ Distribute { version = 1; targets = [ Deliver ] } ]
        in
        Ok
          {
            graph;
            classifier_actions = simplify classifier_actions;
            nf_entries = Hashtbl.fold (fun _ e acc -> e :: acc) entries [];
            merges = List.rev !merges;
            version_count = !next_version;
            header_copies = !header_copies;
            full_copies = !full_copies;
            serial_order;
            priority;
          }
      with Plan_error e -> Error e)

let plan ?copy_mode ?priority ~profile_of graph =
  plan_with_pairs ?copy_mode ~priority_pairs:[] ?priority ~profile_of graph

let of_output (output : Compiler.output) =
  plan_with_pairs ~priority_pairs:output.priority_pairs
    ~priority:output.admit_class ~profile_of:output.ir.Ir.profile_of output.graph

let find_merge plan id = List.find_opt (fun m -> m.id = id) plan.merges

let copies_bytes_per_packet plan ~packet_bytes ~header_bytes =
  (plan.header_copies * header_bytes) + (plan.full_copies * packet_bytes)

let pp_hop fmt = function
  | To_nf n -> Format.pp_print_string fmt n
  | To_merger i -> Format.fprintf fmt "merger#%d" i
  | Deliver -> Format.pp_print_string fmt "output"

let pp_action fmt = function
  | Copy { src_version; dst_version; full } ->
      Format.fprintf fmt "copy(v%d, v%d%s)" src_version dst_version
        (if full then ", full" else "")
  | Distribute { version; targets } ->
      Format.fprintf fmt "distribute(v%d, [%a])" version
        (Format.pp_print_list ~pp_sep:(fun f () -> Format.pp_print_string f ", ") pp_hop)
        targets

let pp_deliverer fmt = function
  | D_nf n -> Format.pp_print_string fmt n
  | D_merger i -> Format.fprintf fmt "merger#%d" i

let pp fmt plan =
  Format.fprintf fmt "@[<v>graph: %a@," Graph.pp plan.graph;
  Format.fprintf fmt "classifier: @[<h>%a@]@,"
    (Format.pp_print_list ~pp_sep:(fun f () -> Format.pp_print_string f "; ") pp_action)
    plan.classifier_actions;
  List.iter
    (fun e ->
      Format.fprintf fmt "FT %s (v%d): @[<h>%a@]%s@," e.nf e.version
        (Format.pp_print_list ~pp_sep:(fun f () -> Format.pp_print_string f "; ") pp_action)
        e.actions
        (match e.nil_target with
        | Some m -> Printf.sprintf "  [nil -> merger#%d]" m
        | None -> ""))
    (List.sort (fun a b -> compare a.nf b.nf) plan.nf_entries);
  List.iter
    (fun m ->
      Format.fprintf fmt "merger#%d: expects %d {%a} -> v%d; ops [%a]; next @[<h>%a@]@," m.id
        (List.length m.expected)
        (Format.pp_print_list
           ~pp_sep:(fun f () -> Format.pp_print_string f ", ")
           (fun f e -> Format.fprintf f "%a:v%d" pp_deliverer e.deliverer e.version))
        m.expected m.result_version
        (Format.pp_print_list ~pp_sep:(fun f () -> Format.pp_print_string f "; ") Merge_op.pp)
        m.ops
        (Format.pp_print_list ~pp_sep:(fun f () -> Format.pp_print_string f "; ") pp_action)
        m.next)
    plan.merges;
  Format.fprintf fmt "versions: %d, header copies: %d, full copies: %d@," plan.version_count
    plan.header_copies plan.full_copies;
  Format.fprintf fmt "equivalent to sequential order: %s@]"
    (String.concat " -> " plan.serial_order)
