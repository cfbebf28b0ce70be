// AddressSanitizer hooks for self-managed memory (fiber stacks, staging).
#pragma once

#if defined(__SANITIZE_ADDRESS__)
#define MV2GNC_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MV2GNC_ASAN 1
#endif
#endif
#ifdef MV2GNC_ASAN
#include <sanitizer/asan_interface.h>
#else
#define ASAN_POISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#define ASAN_UNPOISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#endif
