#include "mem/physical_memory.h"

#include "support/logging.h"

namespace cheri::mem
{

PhysicalMemory::PhysicalMemory(std::uint64_t size_bytes)
    : store_(std::make_shared<CowStore>(size_bytes))
{
}

PhysicalMemory::PhysicalMemory(std::shared_ptr<CowStore> store)
    : store_(std::move(store))
{
    if (!store_)
        support::panic("PhysicalMemory built over a null store");
}

std::uint8_t
PhysicalMemory::readByte(std::uint64_t paddr) const
{
    return store_->readByte(paddr);
}

void
PhysicalMemory::writeByte(std::uint64_t paddr, std::uint8_t value)
{
    store_->writeByte(paddr, value);
}

std::uint64_t
PhysicalMemory::read(std::uint64_t paddr, unsigned size_bytes) const
{
    std::uint8_t bytes[8];
    store_->readBytes(paddr, bytes, size_bytes);
    std::uint64_t value = 0;
    for (unsigned i = 0; i < size_bytes; ++i)
        value |= static_cast<std::uint64_t>(bytes[i]) << (8 * i);
    return value;
}

void
PhysicalMemory::write(std::uint64_t paddr, unsigned size_bytes,
                      std::uint64_t value)
{
    std::uint8_t bytes[8];
    for (unsigned i = 0; i < size_bytes; ++i)
        bytes[i] = static_cast<std::uint8_t>(value >> (8 * i));
    store_->writeBytes(paddr, bytes, size_bytes);
}

Line
PhysicalMemory::readLine(std::uint64_t paddr) const
{
    if (paddr % kLineBytes != 0)
        support::guestFault("mem", "unaligned line read at 0x%llx",
                            static_cast<unsigned long long>(paddr));
    Line line;
    store_->readBytes(paddr, line.data(), kLineBytes);
    return line;
}

void
PhysicalMemory::writeLine(std::uint64_t paddr, const Line &line)
{
    if (paddr % kLineBytes != 0)
        support::guestFault("mem", "unaligned line write at 0x%llx",
                            static_cast<unsigned long long>(paddr));
    store_->writeBytes(paddr, line.data(), kLineBytes);
}

void
PhysicalMemory::writeBlock(std::uint64_t paddr, const std::uint8_t *src,
                           std::uint64_t len)
{
    store_->writeBytes(paddr, src, len);
}

} // namespace cheri::mem
